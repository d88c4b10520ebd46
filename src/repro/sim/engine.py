"""Variable-duration quantum engine primitives.

The NOVA and PolyGraph models both follow the same loop:

1. every unit selects a bounded batch of work from its input queue,
2. the functional layer applies the batch exactly (numpy),
3. every byte / operation is charged to a shared resource,
4. the quantum's duration is the **max** service time over resources,
   floored by the pipeline latency (DRAM + network round trip),
5. outputs produced in quantum *t* become visible in quantum *t+1*.

:class:`ResourcePool` models non-memory shared resources (functional
units) with a simple rate; memory channels and fabrics provide their own
service-time accounting (see :mod:`repro.memory.channel` and
:mod:`repro.network.fabric`).  :class:`QuantumClock` accumulates elapsed
time and exposes it in cycles and seconds.
"""

from __future__ import annotations

from repro.errors import ConfigError, SimulationError


class ResourcePool:
    """A shared resource serving ``rate`` operations per second.

    Used for functional-unit pools (e.g. 16 reduction units at 2 GHz per
    GPN means a rate of 32e9 reduce operations per second).
    """

    def __init__(self, name: str, rate_per_second: float) -> None:
        if rate_per_second <= 0:
            raise ConfigError(f"{name}: rate must be positive")
        self.name = name
        self.rate_per_second = rate_per_second
        self._quantum_ops = 0.0
        self.total_ops = 0.0
        self.busy_seconds = 0.0

    def charge(self, ops: float) -> None:
        if ops < 0:
            raise SimulationError(f"{self.name}: negative op charge")
        self._quantum_ops += ops
        self.total_ops += ops

    def quantum_service_time(self) -> float:
        return self._quantum_ops / self.rate_per_second

    def quantum_utilization(self, quantum_seconds: float) -> float:
        """Busy fraction of the *current* quantum (observability hook).

        Must be read before :meth:`end_quantum` resets the charges.
        """
        if quantum_seconds <= 0:
            return 0.0
        return self.quantum_service_time() / quantum_seconds

    def end_quantum(self, quantum_seconds: float) -> None:
        """Close the quantum: record busy time and reset the charge."""
        service = self.quantum_service_time()
        if service > quantum_seconds + 1e-15:
            raise SimulationError(
                f"{self.name}: service {service:.3e}s exceeds quantum "
                f"{quantum_seconds:.3e}s"
            )
        self.busy_seconds += service
        self._quantum_ops = 0.0

    def utilization(self, elapsed_seconds: float) -> float:
        if elapsed_seconds <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / elapsed_seconds)


class QuantumClock:
    """Tracks elapsed simulated time across variable-duration quanta."""

    def __init__(self, frequency_hz: float, latency_floor_s: float) -> None:
        if frequency_hz <= 0:
            raise ConfigError("frequency must be positive")
        if latency_floor_s < 0:
            raise ConfigError("latency floor must be non-negative")
        self.frequency_hz = frequency_hz
        self.latency_floor_s = latency_floor_s
        self.elapsed_seconds = 0.0
        self.quanta = 0

    def advance(self, service_time_s: float) -> float:
        """Close a quantum whose slowest resource needed ``service_time_s``.

        Returns the actual quantum duration (service time floored by the
        pipeline latency).  An all-idle quantum still costs the floor --
        that is the latency of draining in-flight messages.
        """
        if service_time_s < 0:
            raise SimulationError("service time must be non-negative")
        duration = max(service_time_s, self.latency_floor_s)
        self.elapsed_seconds += duration
        self.quanta += 1
        return duration

    @property
    def elapsed_cycles(self) -> float:
        return self.elapsed_seconds * self.frequency_hz
