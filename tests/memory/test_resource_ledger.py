"""The resource ledger against independent scalar channels and pools.

The vectorized engine charges every HBM channel, DDR pool and FU pool
through one :class:`ResourceLedger`; the scalar engine keeps one
:class:`BandwidthChannel` or :class:`ResourcePool` per unit.  On seeded
random charge sequences the two accountings must agree bit for bit:
service times, busy times, utilizations and byte totals.
"""

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.memory.channel import BandwidthChannel, ResourceLedger
from repro.memory.spec import MemorySpec
from repro.sim.engine import ResourcePool


def spec(name, atom, duplex, random_eff, seq_eff, bandwidth):
    return MemorySpec(
        name=name,
        atom_bytes=atom,
        capacity_bytes=1 << 30,
        peak_bandwidth=bandwidth,
        random_efficiency=random_eff,
        sequential_efficiency=seq_eff,
        latency_s=0.0,
        duplex=duplex,
    )


HBM = spec("hbm", 32, True, 0.8, 0.9, 32e9)
DDR = spec("ddr", 64, False, 0.3, 0.85, 76.8e9)
REDUCE_RATE, PROPAGATE_RATE = 32e9, 96e9


class Reference:
    """One scalar channel or pool per unit, charged one entry at a time."""

    def __init__(self, hbm, ddr, num_gpns, pes_per_gpn):
        self.pes_per_gpn = pes_per_gpn
        self.hbm = [BandwidthChannel(hbm) for _ in range(num_gpns * pes_per_gpn)]
        self.ddr = [BandwidthChannel(ddr) for _ in range(num_gpns)]
        self.pools = (
            [ResourcePool(f"reduce{g}", REDUCE_RATE) for g in range(num_gpns)],
            [ResourcePool(f"prop{g}", PROPAGATE_RATE) for g in range(num_gpns)],
        )

    def units(self):
        return self.hbm + self.ddr + self.pools[0] + self.pools[1]

    def channel(self, kind, pe):
        if kind == ResourceLedger.HBM:
            return self.hbm[pe]
        return self.ddr[pe // self.pes_per_gpn]

    def service_times(self):
        return np.array([unit.quantum_service_time() for unit in self.units()])


def make_pair(hbm=HBM, ddr=DDR, num_gpns=2, pes_per_gpn=3):
    ledger = ResourceLedger(
        hbm, ddr, num_gpns, pes_per_gpn, REDUCE_RATE, PROPAGATE_RATE
    )
    return ledger, Reference(hbm, ddr, num_gpns, pes_per_gpn)


def random_quantum(rng, ledger, reference):
    """Apply one quantum of random charges to both accountings."""
    num_pes = ledger.num_pes
    for _ in range(int(rng.integers(0, 6))):
        channel = int(rng.integers(0, 2))
        pes = rng.permutation(num_pes)[: int(rng.integers(1, num_pes + 1))]
        # Zeros and non-multiples of the atom both occur.
        nbytes = rng.integers(0, 3000, pes.shape[0]) * rng.integers(0, 2, pes.shape[0])
        sequential = bool(rng.integers(0, 2))
        if rng.integers(0, 3) == 0:
            ledger.charge(channel, pes, nbytes, write=True, sequential=sequential)
            for pe, amount in zip(pes.tolist(), nbytes.tolist()):
                reference.channel(channel, pe).charge_write(
                    amount, sequential=sequential
                )
        else:
            useful = bool(rng.integers(0, 2))
            ledger.charge(
                channel, pes, nbytes, sequential=sequential, useful=useful
            )
            for pe, amount in zip(pes.tolist(), nbytes.tolist()):
                reference.channel(channel, pe).charge_read(
                    amount, sequential=sequential, useful=useful
                )
    for pool, pools in zip(
        (ResourceLedger.REDUCE, ResourceLedger.PROPAGATE), reference.pools
    ):
        if rng.integers(0, 2):
            ops = rng.integers(0, 5000, num_pes)
            ledger.charge_ops(pool, ops)
            for pe, count in enumerate(ops.tolist()):
                pools[pe // reference.pes_per_gpn].charge(count)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "hbm, ddr",
    [(HBM, DDR), (spec("hbm", 32, False, 0.5, 1.0, 1e9), spec("ddr", 64, True, 0.3, 0.85, 5e9))],
    ids=["duplex_hbm", "simplex_hbm"],
)
@pytest.mark.parametrize("num_gpns, pes_per_gpn", [(1, 8), (2, 3)])
def test_random_sequences_match_scalar_units(seed, hbm, ddr, num_gpns, pes_per_gpn):
    rng = np.random.default_rng(seed)
    ledger, reference = make_pair(hbm, ddr, num_gpns, pes_per_gpn)
    elapsed = 0.0
    for _ in range(25):
        random_quantum(rng, ledger, reference)
        service = ledger.service_times()
        want = reference.service_times()
        assert service.tolist() == want.tolist()
        assert ledger.hbm_service_times().tolist() == want[: ledger.num_pes].tolist()
        maxima = ledger.class_maxima(service)
        starts = list(ledger.class_starts) + [len(want)]
        assert maxima == [
            max(want[lo:hi]) for lo, hi in zip(starts, starts[1:])
        ]
        duration = max(maxima + [1e-7])
        ledger.end_quantum(duration, service)
        for unit in reference.units():
            unit.end_quantum(duration)
        elapsed += duration
        busy = [unit.busy_seconds for unit in reference.units()]
        assert ledger.busy_seconds.tolist() == busy
    assert ledger.utilizations(elapsed).tolist() == [
        unit.utilization(elapsed) for unit in reference.units()
    ]
    for channel, units in ((ledger.HBM, reference.hbm), (ledger.DDR, reference.ddr)):
        assert ledger.totals(channel).tolist() == [
            [unit.totals.useful_read_bytes for unit in units],
            [unit.totals.wasteful_read_bytes for unit in units],
            [unit.totals.write_bytes for unit in units],
        ]


def test_charges_round_up_per_entry():
    ledger, _ = make_pair()
    ledger.charge(ledger.HBM, np.array([0, 1]), np.array([1, 33]))
    ledger.charge(ledger.DDR, np.array([0, 1, 2]), np.array([1, 1, 65]))
    assert ledger.totals(ledger.HBM)[0].tolist() == [32, 64, 0, 0, 0, 0]
    # PEs 0-2 share GPN 0's pool; each entry rounds on its own.
    assert ledger.totals(ledger.DDR)[0].tolist() == [64 + 64 + 128, 0]


def test_zero_charge_costs_nothing():
    ledger, _ = make_pair()
    pes = np.arange(ledger.num_pes)
    zeros = np.zeros(ledger.num_pes, dtype=np.int64)
    ledger.charge(ledger.HBM, pes, zeros)
    ledger.charge(ledger.DDR, pes, zeros, write=True, sequential=True)
    ledger.charge_ops(ledger.REDUCE, zeros)
    assert not ledger.service_times().any()
    assert not ledger.totals(ledger.HBM).any()
    assert not ledger.totals(ledger.DDR).any()


def test_negative_charge_raises():
    ledger, _ = make_pair()
    pes = np.array([0, 1])
    with pytest.raises(SimulationError):
        ledger.charge(ledger.HBM, pes, np.array([32, -1]))
    with pytest.raises(SimulationError):
        ledger.charge(ledger.DDR, pes, np.array([-64, 0]), write=True)
    with pytest.raises(SimulationError):
        ops = np.zeros(ledger.num_pes, dtype=np.int64)
        ops[3] = -1
        ledger.charge_ops(ledger.PROPAGATE, ops)
    assert not ledger.service_times().any()


def test_undersized_quantum_raises():
    ledger, _ = make_pair()
    ledger.charge_ops(ledger.REDUCE, np.full(ledger.num_pes, 1000))
    service = ledger.service_times()
    slowest = max(ledger.class_maxima(service))
    with pytest.raises(SimulationError, match="reduce_fu.*exceeds quantum"):
        ledger.end_quantum(slowest / 2, service)
    ledger.end_quantum(slowest, service)
    assert not ledger.service_times().any()


def test_bad_sizes_and_rates_rejected():
    with pytest.raises(ConfigError):
        ResourceLedger(HBM, DDR, 0, 8, REDUCE_RATE, PROPAGATE_RATE)
    with pytest.raises(ConfigError):
        ResourceLedger(HBM, DDR, 1, 8, 0.0, PROPAGATE_RATE)
    with pytest.raises(ConfigError):
        ResourceLedger(HBM, DDR, 1, 8, REDUCE_RATE, -1.0)
