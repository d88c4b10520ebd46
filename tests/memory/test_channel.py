"""Bandwidth channels: charging, duplex overlap, quantum accounting."""

import pytest

from repro.errors import SimulationError
from repro.memory.channel import BandwidthChannel
from repro.memory.spec import MemorySpec


def make_channel(duplex=False, bandwidth=1e9):
    spec = MemorySpec(
        name="test",
        atom_bytes=32,
        capacity_bytes=1 << 20,
        peak_bandwidth=bandwidth,
        random_efficiency=0.5,
        sequential_efficiency=1.0,
        latency_s=0.0,
        duplex=duplex,
    )
    return BandwidthChannel(spec)


class TestCharging:
    def test_read_rounds_to_atoms(self):
        ch = make_channel()
        ch.charge_read(1)
        assert ch.totals.useful_read_bytes == 32

    def test_wasteful_reads_separate(self):
        ch = make_channel()
        ch.charge_read(32, useful=False)
        assert ch.totals.wasteful_read_bytes == 32
        assert ch.totals.useful_read_bytes == 0
        assert ch.totals.read_bytes == 32

    def test_zero_charge_is_free(self):
        ch = make_channel()
        ch.charge_read(0)
        ch.charge_write(0)
        assert ch.quantum_service_time() == 0.0

    def test_negative_charge_rejected(self):
        ch = make_channel()
        with pytest.raises(SimulationError):
            ch.charge_read(-1)
        with pytest.raises(SimulationError):
            ch.charge_write(-1)


class TestServiceTime:
    def test_random_slower_than_sequential(self):
        ch = make_channel()
        ch.charge_read(1000, sequential=False)
        random_time = ch.quantum_service_time()
        ch.end_quantum(random_time)
        ch.charge_read(1000, sequential=True)
        assert ch.quantum_service_time() < random_time

    def test_simplex_sums_read_and_write(self):
        ch = make_channel()
        ch.charge_read(3200, sequential=True)
        ch.charge_write(3200, sequential=True)
        assert ch.quantum_service_time() == pytest.approx(6400 / 1e9)

    def test_duplex_overlaps_read_and_write(self):
        ch = make_channel(duplex=True)
        ch.charge_read(3200, sequential=True)
        ch.charge_write(3200, sequential=True)
        assert ch.quantum_service_time() == pytest.approx(3200 / 1e9)

    def test_duplex_bound_by_slower_stream(self):
        ch = make_channel(duplex=True)
        ch.charge_read(3200, sequential=True)
        ch.charge_write(6400, sequential=True)
        assert ch.quantum_service_time() == pytest.approx(6400 / 1e9)


class TestQuantumLifecycle:
    def test_end_quantum_accumulates_busy_time(self):
        ch = make_channel()
        ch.charge_read(1000, sequential=True)
        service = ch.quantum_service_time()
        ch.end_quantum(service * 2)
        assert ch.busy_seconds == pytest.approx(service)
        assert ch.quantum_service_time() == 0.0

    def test_end_quantum_rejects_undersized_quantum(self):
        ch = make_channel()
        ch.charge_read(10_000)
        with pytest.raises(SimulationError):
            ch.end_quantum(1e-12)

    def test_utilization(self):
        ch = make_channel()
        ch.charge_read(3200, sequential=True)  # 3.2 us at 1 GB/s
        ch.end_quantum(6.4e-6)
        assert ch.utilization(6.4e-6) == pytest.approx(0.5)
        assert ch.utilization(0.0) == 0.0

