"""Run-level results and the paper's metrics (Section II-A).

- **GTEPS**: giga traversed-edges per second -- edge expansions performed
  by the accelerator divided by simulated time.
- **Work efficiency**: edges a sequential algorithm traverses divided by
  edges the (asynchronous) accelerator traversed; redundant re-traversals
  push it below 1.0.
- **Coalescing**: messages that folded into an already-pending vertex
  activation instead of triggering their own propagation (Fig 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.sim.stats import StatGroup


@dataclass
class RunResult:
    """Everything one accelerator run produces."""

    workload: str
    system: str
    num_vertices: int
    num_edges: int
    result: np.ndarray

    elapsed_seconds: float
    quanta: int

    edges_traversed: int
    messages_sent: int
    messages_processed: int
    useful_messages: int
    redundant_messages: int
    coalesced_messages: int
    activations: int

    #: Named time components summing approximately to elapsed_seconds
    #: (e.g. {"processing": ..., "overfetch": ...} for NOVA, or
    #: {"processing": ..., "switching": ..., "inefficiency": ...} for
    #: PolyGraph) -- the Fig 2 / Fig 6 breakdowns.
    breakdown: Dict[str, float] = field(default_factory=dict)

    #: Byte totals by category (hbm_useful_read, hbm_wasteful_read, ...).
    traffic: Dict[str, int] = field(default_factory=dict)

    #: Resource utilizations in [0, 1].
    utilization: Dict[str, float] = field(default_factory=dict)

    stats: Optional[StatGroup] = None

    #: Sequential-algorithm edge count, if the caller computed the oracle.
    reference_edges: Optional[int] = None

    #: Per-quantum observability timeline (see
    #: :meth:`repro.obs.recorder.TimelineRecorder.timeline_dict`), when
    #: the run was instrumented with a timeline recorder.
    timeline: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------

    @property
    def gteps(self) -> float:
        """Raw traversal throughput (giga edges/second)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.edges_traversed / self.elapsed_seconds / 1e9

    @property
    def work_efficiency(self) -> Optional[float]:
        """sequential_edges / traversed_edges, if the oracle count is known."""
        if self.reference_edges is None or self.edges_traversed == 0:
            return None
        return self.reference_edges / self.edges_traversed

    @property
    def effective_gteps(self) -> Optional[float]:
        """GTEPS x work efficiency: useful traversal throughput."""
        eff = self.work_efficiency
        if eff is None:
            return None
        return self.gteps * eff

    @property
    def coalescing_rate(self) -> float:
        """Fraction of generated updates absorbed by coalescing.

        The denominator is messages *generated* (``messages_sent``):
        systems that merge updates before delivery (PolyGraph's replica
        tables) never count the merged updates as processed messages, so
        generated updates are the comparable base (Fig 5).
        """
        if self.messages_sent == 0:
            return 0.0
        return self.coalesced_messages / self.messages_sent

    def describe(self) -> str:
        """One-line summary for bench output."""
        eff = self.work_efficiency
        eff_text = f" workeff={eff:.2f}" if eff is not None else ""
        return (
            f"[{self.system}/{self.workload}] V={self.num_vertices:,} "
            f"E={self.num_edges:,} time={self.elapsed_seconds * 1e3:.3f}ms "
            f"GTEPS={self.gteps:.2f}{eff_text} "
            f"coalesce={self.coalescing_rate:.1%} quanta={self.quanta}"
        )

    def summary_lines(self) -> List[str]:
        """What ``repro run`` prints: :meth:`describe`, then the time
        breakdown and the utilizations.  The run cache keeps them in
        each entry's header, so a hit prints them without unpickling."""
        lines = [self.describe()]
        for name, seconds in self.breakdown.items():
            lines.append(f"  {name:>12}: {seconds * 1e3:9.4f} ms")
        for name, value in self.utilization.items():
            lines.append(f"  util {name:>7}: {value:8.1%}")
        return lines
