"""Per-quantum bandwidth accounting for memory channels.

The simulator advances in variable-duration quanta (see
:mod:`repro.sim.engine`).  Within a quantum, every unit that touches a
memory channel charges bytes to a :class:`BandwidthChannel`; the channel
converts the charges into the *service time* the channel would need, and
the quantum's duration is the maximum service time over all shared
resources.  Channels also accumulate lifetime statistics in the categories
the paper reports (Fig 10): useful reads, wasteful reads (inactive blocks
read while searching for active blocks), and writes.

:class:`ResourceLedger` is the vectorized engine's form: every HBM
channel, DDR pool and functional-unit pool of a system in one set of
arrays, charged per PE and closed once per quantum.  The scalar engine
keeps one :class:`BandwidthChannel` per unit, so engine parity compares
two independent accountings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.memory.spec import MemorySpec


@dataclass
class TrafficTotals:
    """Lifetime byte totals for one channel, by category."""

    useful_read_bytes: int = 0
    wasteful_read_bytes: int = 0
    write_bytes: int = 0

    @property
    def read_bytes(self) -> int:
        return self.useful_read_bytes + self.wasteful_read_bytes

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes


@dataclass
class _QuantumCharges:
    """Byte charges accumulated during the current quantum."""

    random_read: float = 0.0
    sequential_read: float = 0.0
    random_write: float = 0.0
    sequential_write: float = 0.0


class BandwidthChannel:
    """Accounting wrapper around one :class:`MemorySpec`.

    The channel distinguishes *random* from *sequential* traffic because
    the two sustain different fractions of peak bandwidth (HBM2 is nearly
    pattern-insensitive; DDR4 collapses under random access).  The caller
    declares the pattern per charge; the paper's design maps vertex traffic
    to random HBM2 accesses and edge traffic to sequential DDR4 streams.
    """

    def __init__(self, spec: MemorySpec) -> None:
        self.spec = spec
        self.totals = TrafficTotals()
        self._quantum = _QuantumCharges()
        self.busy_seconds = 0.0

    def charge_read(
        self, nbytes: int, *, sequential: bool = False, useful: bool = True
    ) -> None:
        """Charge a read of ``nbytes`` (rounded up to whole atoms)."""
        if nbytes < 0:
            raise SimulationError("cannot charge a negative read")
        if nbytes == 0:
            return
        nbytes = self.spec.round_up(nbytes)
        if useful:
            self.totals.useful_read_bytes += nbytes
        else:
            self.totals.wasteful_read_bytes += nbytes
        if sequential:
            self._quantum.sequential_read += nbytes
        else:
            self._quantum.random_read += nbytes

    def charge_write(self, nbytes: int, *, sequential: bool = False) -> None:
        """Charge a write of ``nbytes`` (rounded up to whole atoms)."""
        if nbytes < 0:
            raise SimulationError("cannot charge a negative write")
        if nbytes == 0:
            return
        nbytes = self.spec.round_up(nbytes)
        self.totals.write_bytes += nbytes
        if sequential:
            self._quantum.sequential_write += nbytes
        else:
            self._quantum.random_write += nbytes

    def quantum_service_time(self) -> float:
        """Seconds this channel needs to serve the current quantum's bytes.

        Duplex channels (HBM2 vertex memory) overlap the read and write
        streams, so the service time is the slower stream; simplex
        channels serialize them.
        """
        read_time = (
            self._quantum.random_read / self.spec.random_bandwidth
            + self._quantum.sequential_read / self.spec.sequential_bandwidth
        )
        write_time = (
            self._quantum.random_write / self.spec.random_bandwidth
            + self._quantum.sequential_write / self.spec.sequential_bandwidth
        )
        if self.spec.duplex:
            return max(read_time, write_time)
        return read_time + write_time

    def quantum_utilization(self, quantum_seconds: float) -> float:
        """Busy fraction of the *current* quantum (observability hook).

        Must be read before :meth:`end_quantum` resets the charges.
        """
        if quantum_seconds <= 0:
            return 0.0
        return self.quantum_service_time() / quantum_seconds

    def end_quantum(self, quantum_seconds: float) -> None:
        """Close the quantum: record busy time and reset per-quantum state."""
        service = self.quantum_service_time()
        if service > quantum_seconds + 1e-15:
            raise SimulationError(
                f"{self.spec.name}: service time {service:.3e}s exceeds "
                f"quantum {quantum_seconds:.3e}s; the engine must size the "
                "quantum to the slowest resource"
            )
        self.busy_seconds += service
        self._quantum = _QuantumCharges()

    def utilization(self, elapsed_seconds: float) -> float:
        """Fraction of elapsed time this channel was busy."""
        if elapsed_seconds <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / elapsed_seconds)


def _channel_times(times: np.ndarray, duplex: bool) -> np.ndarray:
    """Service times from ``(4, n)`` per-stream times (random and
    sequential reads, then writes), combined as a channel combines them."""
    read = times[0] + times[1]
    write = times[2] + times[3]
    return np.maximum(read, write) if duplex else read + write


class ResourceLedger:
    """One quantum's charges to every shared resource of a NOVA system.

    The units are each PE's HBM channel, each GPN's DDR pool, and each
    GPN's reduce and propagate functional-unit pools (Table II).  A
    charge is whole bytes or ops per PE, added into a per-PE row with
    one fancy-index add (``pes`` are unique ids); the DDR and FU rows sum
    per GPN (PEs are contiguous per GPN) when service times are read.
    Bytes round up to whole atoms per entry, as one
    :meth:`BandwidthChannel.charge_read` per entry would, and whole
    numbers sum exactly in float64 in any order, so every service time,
    busy time and total equals that of separate :class:`BandwidthChannel`
    and :class:`~repro.sim.engine.ResourcePool` objects bit for bit.
    Per-unit arrays are flat: the HBM channels, then the DDR, reduce and
    propagate pools (:attr:`class_starts`).
    """

    #: Resource classes, in the order a tie for the slowest one resolves.
    CLASSES = ("hbm", "ddr", "reduce_fu", "propagate_fu")
    #: Channel classes, and the FU pools' rows of the charge matrix.
    HBM, DDR = 0, 1
    REDUCE, PROPAGATE = 8, 9

    def __init__(
        self,
        hbm: MemorySpec,
        ddr: MemorySpec,
        num_gpns: int,
        pes_per_gpn: int,
        reduce_rate: float,
        propagate_rate: float,
    ) -> None:
        if num_gpns <= 0 or pes_per_gpn <= 0:
            raise ConfigError("num_gpns and pes_per_gpn must be positive")
        for name, rate in (("reduce_fu", reduce_rate), ("prop_fu", propagate_rate)):
            if rate <= 0:
                raise ConfigError(f"{name}: rate must be positive")
        self.specs = (hbm, ddr)
        self.num_gpns = num_gpns
        self.num_pes = p = num_gpns * pes_per_gpn
        #: Per-quantum bytes and ops per PE: row ``4 * channel + 2 *
        #: write + sequential``, then the two pools.
        self._charges = np.zeros((10, p), dtype=np.int64)
        #: Lifetime bytes per PE: (channel, useful/wasteful/write, PE).
        self._totals = np.zeros((2, 3, p), dtype=np.int64)
        rates = [[s.random_bandwidth, s.sequential_bandwidth] * 2 for s in self.specs]
        self._hbm_rates = np.array(rates[0])[:, None]
        self._gpn_rates = np.array(rates[1] + [reduce_rate, propagate_rate])[:, None]
        self.class_starts = np.array([0, p, p + num_gpns, p + 2 * num_gpns])
        self.busy_seconds = np.zeros(p + 3 * num_gpns)

    def charge(
        self,
        channel: int,
        pes: np.ndarray,
        nbytes: np.ndarray,
        *,
        write: bool = False,
        sequential: bool = False,
        useful: bool = True,
    ) -> None:
        """Charge ``nbytes[i]`` moved by PE ``pes[i]`` over ``channel``
        (its own HBM channel, or its GPN's DDR pool)."""
        if np.minimum.reduce(nbytes, initial=0) < 0:
            raise SimulationError("cannot charge a negative transfer")
        atom = self.specs[channel].atom_bytes
        nbytes = (nbytes + (atom - 1)) // atom * atom
        self._charges[4 * channel + 2 * write + sequential, pes] += nbytes
        self._totals[channel, 2 if write else int(not useful), pes] += nbytes

    def charge_ops(self, pool: int, ops: np.ndarray) -> None:
        """Charge ``ops[pe]`` operations of every PE to its GPN's ``pool``."""
        if np.minimum.reduce(ops, initial=0) < 0:
            raise SimulationError("negative op charge")
        self._charges[pool] += ops

    def hbm_service_times(self) -> np.ndarray:
        """Each PE's HBM channel service time for the current quantum."""
        times = self._charges[:4] / self._hbm_rates
        return _channel_times(times, self.specs[0].duplex)

    def service_times(self) -> np.ndarray:
        """Every unit's service time for the current quantum."""
        per_gpn = self._charges[4:].reshape(6, self.num_gpns, -1)
        per_gpn = np.add.reduce(per_gpn, axis=2) / self._gpn_rates
        ddr = _channel_times(per_gpn[:4], self.specs[1].duplex)
        return np.concatenate((self.hbm_service_times(), ddr, per_gpn[4:].ravel()))

    def class_maxima(self, service: np.ndarray) -> list:
        """The slowest unit's service time in each class."""
        return np.maximum.reduceat(service, self.class_starts).tolist()

    def end_quantum(self, quantum_seconds: float, service: np.ndarray) -> None:
        """Close the quantum whose :meth:`service_times` are ``service``:
        record busy time and reset the charges."""
        worst = np.maximum.reduce(service)
        if worst > quantum_seconds + 1e-15:
            unit = np.searchsorted(self.class_starts, service.argmax(), "right")
            raise SimulationError(
                f"{self.CLASSES[unit - 1]}: service time {worst:.3e}s exceeds "
                f"quantum {quantum_seconds:.3e}s; the engine must size the "
                "quantum to the slowest resource"
            )
        self.busy_seconds += service
        self._charges.fill(0)

    def utilizations(self, elapsed_seconds: float) -> np.ndarray:
        """Every unit's busy fraction of ``elapsed_seconds``."""
        if elapsed_seconds <= 0:
            return np.zeros(self.busy_seconds.shape[0])
        return np.minimum(1.0, self.busy_seconds / elapsed_seconds)

    def totals(self, channel: int) -> np.ndarray:
        """Lifetime useful-read, wasteful-read and write bytes of each of
        ``channel``'s units, as a ``(3, units)`` array."""
        per_pe = self._totals[channel]
        if channel == self.DDR:
            return np.add.reduce(per_pe.reshape(3, self.num_gpns, -1), axis=2)
        return per_pe.copy()
