"""PR-delta: asynchronous, residual-push PageRank.

Section V of the paper: "Our implementation of PR-delta, as specified by
[GraphPulse], proved to be very sensitive to the order of the traversal
of the graph... Hence, we have chosen to implement PR in BSP mode."
This module implements the rejected variant so that sensitivity is
measurable (see ``benchmarks/test_ablations.py``).

Semantics (push-style delta PageRank): every vertex holds a committed
``rank`` and a pending ``residual``.  Seeding puts ``(1-d)/N`` of
residual everywhere.  When the propagation engine picks a vertex up, its
residual is *harvested* -- folded into rank and pushed to neighbors as
``d * residual / out_degree``.  A vertex re-activates whenever its
residual accumulates past the threshold.  The fixed point matches
push-formulated PageRank (with the same dangling-vertex leak as
:class:`~repro.workloads.pagerank.PageRank`'s oracle) to within
``threshold * num_vertices``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.workloads import reference
from repro.workloads.base import (
    ProgramState,
    ReduceOutcome,
    VertexProgram,
    unique_ids,
)


class PageRankDelta(VertexProgram):
    """residual[u] += message; harvest on propagation."""

    name = "pr-delta"
    mode = "async"
    combine = "sum"

    def __init__(
        self, damping: float = 0.85, threshold: float = 1e-7
    ) -> None:
        self.damping = damping
        self.threshold = threshold

    def create_state(self, graph: CSRGraph, source: Optional[int]) -> ProgramState:
        n = graph.num_vertices
        state = ProgramState(
            graph=graph,
            source=None,
            arrays={
                "rank": np.zeros(n),
                "residual": np.full(n, (1.0 - self.damping) / max(n, 1)),
                "safe_deg": np.maximum(
                    graph.out_degrees().astype(np.float64), 1.0
                ),
            },
        )
        return state

    def initial_active(self, state: ProgramState) -> np.ndarray:
        residual = state["residual"]
        return np.flatnonzero(residual >= self.threshold)

    def reduce(
        self, state: ProgramState, dest: np.ndarray, values: np.ndarray
    ) -> ReduceOutcome:
        residual = state["residual"]
        np.add.at(residual, dest, values)
        # Any destination now holding enough residual needs (re)pushing;
        # the engine's active flags deduplicate pending vertices.
        hot = unique_ids(dest[residual[dest] >= self.threshold])
        return ReduceOutcome(useful_messages=len(dest), improved=hot)

    def snapshot(self, state: ProgramState, vertices: np.ndarray) -> np.ndarray:
        """Harvest: commit residual to rank, emit the scaled push value."""
        residual = state["residual"]
        harvested = residual[vertices].copy()
        state["rank"][vertices] += harvested
        residual[vertices] = 0.0
        return self.damping * harvested / state["safe_deg"][vertices]

    def propagate_values(
        self,
        state: ProgramState,
        src_values: np.ndarray,
        weights: Optional[np.ndarray],
    ) -> np.ndarray:
        return src_values

    def result(self, state: ProgramState) -> np.ndarray:
        # Un-harvested residual is committed mass that never got pushed;
        # folding it in tightens the estimate by up to threshold * N.
        return state["rank"] + state["residual"]

    def reference(
        self, graph: CSRGraph, source: Optional[int]
    ) -> Tuple[np.ndarray, int]:
        return reference.pagerank(
            graph, damping=self.damping, tolerance=1e-12, max_iterations=500
        )
