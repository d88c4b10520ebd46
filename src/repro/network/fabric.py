"""Fabric timing models.

All fabrics consume a dense ``(P, P)`` numpy matrix of bytes sent from
each source PE to each destination PE during the current quantum and
report the time the slowest shared resource needs to move them:

- :class:`PointToPointFabric` -- a dedicated link per ordered PE pair
  (the 8x8 electrical network inside a GPN, 1.2 GB/s per link in
  Table II).
- :class:`HierarchicalFabric` -- point-to-point links inside each GPN
  plus a crossbar between GPNs where each GPN owns one ingress and one
  egress port (60 GB/s per port, modelled after a Tomahawk-class switch).
- :class:`IdealFabric` -- infinite bandwidth; used for the Fig 9c
  sensitivity study.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, SimulationError


class Fabric:
    """Base class: byte-matrix in, service time out, with lifetime stats."""

    #: Unloaded message latency added to the quantum floor, in seconds.
    latency_s: float = 50e-9

    def __init__(self, num_pes: int) -> None:
        if num_pes <= 0:
            raise ConfigError("num_pes must be positive")
        self.num_pes = num_pes
        self.total_bytes = 0
        self.busy_seconds = 0.0

    def _check(self, traffic: np.ndarray) -> np.ndarray:
        traffic = np.asarray(traffic, dtype=np.float64)
        if traffic.shape != (self.num_pes, self.num_pes):
            raise SimulationError(
                f"traffic matrix must be ({self.num_pes}, {self.num_pes}), "
                f"got {traffic.shape}"
            )
        if (traffic < 0).any():
            raise SimulationError("traffic bytes must be non-negative")
        return traffic

    def service_time(self, traffic: np.ndarray) -> float:
        """Seconds needed to deliver ``traffic`` (bottleneck resource)."""
        raise NotImplementedError

    def record(
        self, traffic: np.ndarray, service_time: float | None = None
    ) -> None:
        """Accumulate lifetime statistics for a delivered quantum.

        Diagonal entries (messages a PE sends to itself) never enter the
        fabric and are excluded from the byte totals.  ``service_time``
        is ``service_time(traffic)`` when the caller already computed it.
        """
        traffic = self._check(traffic)
        off_diagonal = traffic.copy()
        np.fill_diagonal(off_diagonal, 0.0)
        self.total_bytes += int(off_diagonal.sum())
        if service_time is None:
            service_time = self.service_time(traffic)
        self.busy_seconds += service_time


class IdealFabric(Fabric):
    """Infinite-bandwidth point-to-point network (Fig 9c baseline)."""

    latency_s = 0.0

    def service_time(self, traffic: np.ndarray) -> float:
        self._check(traffic)
        return 0.0


class PointToPointFabric(Fabric):
    """One dedicated link per ordered PE pair."""

    def __init__(self, num_pes: int, link_bandwidth: float) -> None:
        super().__init__(num_pes)
        if link_bandwidth <= 0:
            raise ConfigError("link_bandwidth must be positive")
        self.link_bandwidth = link_bandwidth

    def service_time(self, traffic: np.ndarray) -> float:
        traffic = self._check(traffic)
        off_diagonal = traffic.copy()
        np.fill_diagonal(off_diagonal, 0.0)
        if off_diagonal.size == 0:
            return 0.0
        return float(off_diagonal.max()) / self.link_bandwidth


class HierarchicalFabric(Fabric):
    """Intra-GPN point-to-point links plus an inter-GPN crossbar.

    Messages between PEs of the same GPN use the dedicated pairwise links.
    Messages between GPNs are funnelled through one egress port at the
    source GPN and one ingress port at the destination GPN; the crossbar
    core is non-blocking, so ports are the only shared resource.
    """

    def __init__(
        self,
        num_gpns: int,
        pes_per_gpn: int,
        link_bandwidth: float,
        port_bandwidth: float,
    ) -> None:
        if num_gpns <= 0 or pes_per_gpn <= 0:
            raise ConfigError("num_gpns and pes_per_gpn must be positive")
        if link_bandwidth <= 0 or port_bandwidth <= 0:
            raise ConfigError("bandwidths must be positive")
        super().__init__(num_gpns * pes_per_gpn)
        self.num_gpns = num_gpns
        self.pes_per_gpn = pes_per_gpn
        self.link_bandwidth = link_bandwidth
        self.port_bandwidth = port_bandwidth
        gpn = np.arange(self.num_pes) // pes_per_gpn
        #: The intra-GPN pairwise links: same GPN, not a self-message.
        self._links = (gpn[:, None] == gpn[None, :]) & ~np.eye(
            self.num_pes, dtype=bool
        )

    def _gpn_traffic(self, traffic: np.ndarray) -> np.ndarray:
        """Collapse the PE matrix into a (num_gpns, num_gpns) byte matrix."""
        p = self.pes_per_gpn
        g = self.num_gpns
        return traffic.reshape(g, p, g, p).sum(axis=(1, 3))

    def service_time(self, traffic: np.ndarray) -> float:
        traffic = self._check(traffic)
        # Intra-GPN pairwise links (diagonal blocks, self-messages free).
        worst_link = float(traffic.max(where=self._links, initial=0.0))
        link_time = worst_link / self.link_bandwidth

        if self.num_gpns == 1:
            return link_time

        gpn_traffic = self._gpn_traffic(traffic)
        np.fill_diagonal(gpn_traffic, 0.0)
        egress = gpn_traffic.sum(axis=1).max() if gpn_traffic.size else 0.0
        ingress = gpn_traffic.sum(axis=0).max() if gpn_traffic.size else 0.0
        port_time = float(max(egress, ingress)) / self.port_bandwidth
        return max(link_time, port_time)
