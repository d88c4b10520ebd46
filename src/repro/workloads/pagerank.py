"""PageRank in bulk-synchronous mode.

The paper runs PR in BSP mode because delta-PR's work efficiency is too
sensitive to traversal order for out-of-core operation (Section V).  Each
superstep every vertex pushes ``rank / out_degree`` to its neighbors; the
reduce sums contributions; the superstep barrier applies damping and
tests global L1 convergence.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.workloads import reference
from repro.workloads.base import ProgramState, ReduceOutcome, VertexProgram


class PageRank(VertexProgram):
    """accum[u] += message; barrier: rank = (1-d)/N + d * accum."""

    name = "pr"
    mode = "bsp"

    def __init__(
        self,
        damping: float = 0.85,
        tolerance: float = 1e-6,
        max_supersteps: int = 100,
    ) -> None:
        self.damping = damping
        self.tolerance = tolerance
        self.max_supersteps = max_supersteps

    def create_state(self, graph: CSRGraph, source: Optional[int]) -> ProgramState:
        n = graph.num_vertices
        rank = np.full(n, 1.0 / max(n, 1))
        accum = np.zeros(n)
        safe_deg = np.maximum(graph.out_degrees().astype(np.float64), 1.0)
        state = ProgramState(
            graph=graph,
            source=None,
            arrays={"rank": rank, "accum": accum, "safe_deg": safe_deg},
        )
        state.scalars["superstep"] = 0
        state.scalars["converged"] = False
        return state

    def initial_active(self, state: ProgramState) -> np.ndarray:
        return np.arange(state.graph.num_vertices, dtype=np.int64)

    def reduce(
        self, state: ProgramState, dest: np.ndarray, values: np.ndarray
    ) -> ReduceOutcome:
        np.add.at(state["accum"], dest, values)
        # BSP activation happens at the barrier, not per message.
        return ReduceOutcome(
            useful_messages=len(dest), improved=np.empty(0, dtype=np.int64)
        )

    def snapshot(self, state: ProgramState, vertices: np.ndarray) -> np.ndarray:
        return state["rank"][vertices] / state["safe_deg"][vertices]

    def superstep_end(self, state: ProgramState) -> np.ndarray:
        n = state.graph.num_vertices
        rank, accum = state["rank"], state["accum"]
        new_rank = (1.0 - self.damping) / max(n, 1) + self.damping * accum
        delta = float(np.abs(new_rank - rank).sum())
        rank[:] = new_rank
        accum[:] = 0.0
        state.scalars["superstep"] += 1
        done = (
            delta < self.tolerance
            or state.scalars["superstep"] >= self.max_supersteps
        )
        state.scalars["converged"] = delta < self.tolerance
        if done:
            return np.empty(0, dtype=np.int64)
        return np.arange(n, dtype=np.int64)

    def result(self, state: ProgramState) -> np.ndarray:
        return state["rank"]

    def reference(
        self, graph: CSRGraph, source: Optional[int]
    ) -> Tuple[np.ndarray, int]:
        return reference.pagerank(
            graph,
            damping=self.damping,
            tolerance=self.tolerance,
            max_iterations=self.max_supersteps,
        )
