"""Interconnect models: link and port bottleneck accounting."""

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.network.fabric import (
    HierarchicalFabric,
    IdealFabric,
    PointToPointFabric,
)


def traffic(num_pes, entries):
    m = np.zeros((num_pes, num_pes))
    for src, dst, nbytes in entries:
        m[src, dst] = nbytes
    return m


class TestIdeal:
    def test_zero_time(self):
        fabric = IdealFabric(4)
        assert fabric.service_time(traffic(4, [(0, 1, 1e9)])) == 0.0
        assert fabric.latency_s == 0.0

    def test_records_bytes(self):
        fabric = IdealFabric(2)
        fabric.record(traffic(2, [(0, 1, 100)]))
        assert fabric.total_bytes == 100


class TestPointToPoint:
    def test_busiest_link_dictates(self):
        fabric = PointToPointFabric(4, link_bandwidth=1e9)
        m = traffic(4, [(0, 1, 1000), (2, 3, 4000)])
        assert fabric.service_time(m) == pytest.approx(4000 / 1e9)

    def test_parallel_links_do_not_add(self):
        fabric = PointToPointFabric(4, link_bandwidth=1e9)
        m = traffic(4, [(0, 1, 1000), (1, 2, 1000), (2, 3, 1000)])
        assert fabric.service_time(m) == pytest.approx(1000 / 1e9)

    def test_self_traffic_is_free(self):
        fabric = PointToPointFabric(2, link_bandwidth=1e9)
        assert fabric.service_time(traffic(2, [(0, 0, 1e12)])) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            PointToPointFabric(0, 1e9)
        with pytest.raises(ConfigError):
            PointToPointFabric(4, 0)
        fabric = PointToPointFabric(4, 1e9)
        with pytest.raises(SimulationError):
            fabric.service_time(np.zeros((3, 3)))
        with pytest.raises(SimulationError):
            fabric.service_time(np.full((4, 4), -1.0))


class TestHierarchical:
    def make(self):
        return HierarchicalFabric(
            num_gpns=2, pes_per_gpn=2, link_bandwidth=1e9, port_bandwidth=4e9
        )

    def test_intra_gpn_uses_links(self):
        fabric = self.make()
        m = traffic(4, [(0, 1, 2000)])  # PEs 0,1 in GPN 0
        assert fabric.service_time(m) == pytest.approx(2000 / 1e9)

    def test_inter_gpn_uses_ports(self):
        fabric = self.make()
        m = traffic(4, [(0, 2, 8000)])  # GPN 0 -> GPN 1
        assert fabric.service_time(m) == pytest.approx(8000 / 4e9)

    def test_egress_port_aggregates(self):
        fabric = HierarchicalFabric(3, 1, link_bandwidth=1e9, port_bandwidth=1e9)
        # GPN 0 sends to both other GPNs: its egress port serializes.
        m = traffic(3, [(0, 1, 1000), (0, 2, 1000)])
        assert fabric.service_time(m) == pytest.approx(2000 / 1e9)

    def test_ingress_port_aggregates(self):
        fabric = HierarchicalFabric(3, 1, link_bandwidth=1e9, port_bandwidth=1e9)
        m = traffic(3, [(0, 2, 1000), (1, 2, 1000)])
        assert fabric.service_time(m) == pytest.approx(2000 / 1e9)

    def test_disjoint_pairs_run_in_parallel(self):
        fabric = HierarchicalFabric(4, 1, link_bandwidth=1e9, port_bandwidth=1e9)
        m = traffic(4, [(0, 1, 1000), (2, 3, 1000)])
        assert fabric.service_time(m) == pytest.approx(1000 / 1e9)

    def test_single_gpn_never_uses_ports(self):
        fabric = HierarchicalFabric(1, 4, link_bandwidth=1e9, port_bandwidth=1e-3)
        m = traffic(4, [(0, 3, 1000)])
        assert fabric.service_time(m) == pytest.approx(1000 / 1e9)

    def test_validation(self):
        with pytest.raises(ConfigError):
            HierarchicalFabric(0, 4, 1e9, 1e9)
        with pytest.raises(ConfigError):
            HierarchicalFabric(2, 2, -1, 1e9)


class TestRecording:
    def test_busy_and_bytes_accumulate(self):
        fabric = PointToPointFabric(2, link_bandwidth=1e9)
        m = traffic(2, [(0, 1, 1000)])
        fabric.record(m)
        fabric.record(m)
        assert fabric.total_bytes == 2000
        assert fabric.busy_seconds == pytest.approx(2 * 1000 / 1e9)


def fabrics(num_gpns, pes_per_gpn=4):
    """A fresh ideal, point-to-point and hierarchical fabric."""
    num_pes = num_gpns * pes_per_gpn
    return [
        IdealFabric(num_pes),
        PointToPointFabric(num_pes, link_bandwidth=1.2e9),
        HierarchicalFabric(num_gpns, pes_per_gpn, 1.2e9, 60e9),
    ]


class TestRecordReturnsServiceTime:
    """The engine's one fabric charge per quantum: ``record`` checks the
    matrix once and returns what ``service_time`` returns."""

    @pytest.mark.parametrize("num_gpns", [1, 2])
    def test_matches_service_time_and_off_diagonal_bytes(self, num_gpns):
        rng = np.random.default_rng(num_gpns)
        for fabric, reference in zip(fabrics(num_gpns), fabrics(num_gpns)):
            busy, total = 0.0, 0
            for _ in range(20):
                num_pes = fabric.num_pes
                # Whole message bytes, self-messages on the diagonal
                # included (they never enter the fabric).
                m = rng.integers(0, 50, (num_pes, num_pes)) * 8
                m *= rng.integers(0, 2, (num_pes, num_pes))
                want = reference.service_time(m)
                assert fabric.record(m) == want
                busy += want
                total += int(m.sum() - np.trace(m))
                assert fabric.total_bytes == total
                assert fabric.busy_seconds == busy
            assert total > 0

    def test_rejects_bad_matrices_before_recording(self):
        for fabric in fabrics(2):
            with pytest.raises(SimulationError):
                fabric.record(np.zeros((3, 3)))
            bad = np.zeros((fabric.num_pes, fabric.num_pes))
            bad[0, 1] = -8
            with pytest.raises(SimulationError):
                fabric.record(bad)
            assert fabric.total_bytes == 0 and fabric.busy_seconds == 0.0
