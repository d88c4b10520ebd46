"""Breadth-first search: asynchronous, min-reduce, distance = hops.

The data-driven workload of the paper's evaluation (dynamic frontier,
sparse on high-diameter graphs, dense on social graphs).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.graph.csr import CSRGraph
from repro.workloads import reference
from repro.workloads.base import (
    ProgramState,
    ReduceOutcome,
    VertexProgram,
    unique_ids,
)


class BFS(VertexProgram):
    """dist[u] = min(dist[u], message); propagate dist[v] + 1."""

    name = "bfs"
    mode = "async"

    def create_state(self, graph: CSRGraph, source: Optional[int]) -> ProgramState:
        if source is None:
            raise WorkloadError("BFS needs a source vertex")
        if not 0 <= source < graph.num_vertices:
            raise WorkloadError(f"source {source} out of range")
        dist = np.full(graph.num_vertices, np.inf)
        dist[source] = 0.0
        return ProgramState(graph=graph, source=source, arrays={"dist": dist})

    def initial_active(self, state: ProgramState) -> np.ndarray:
        return np.array([state.source], dtype=np.int64)

    def reduce(
        self, state: ProgramState, dest: np.ndarray, values: np.ndarray
    ) -> ReduceOutcome:
        dist = state["dist"]
        old = dist.take(dest)  # pre-batch values, per message
        np.minimum.at(dist, dest, values)
        useful = int(np.count_nonzero(values < old))
        improved = unique_ids(dest.compress(dist.take(dest) < old), dist.shape[0])
        return ReduceOutcome(useful_messages=useful, improved=improved)

    def snapshot(self, state: ProgramState, vertices: np.ndarray) -> np.ndarray:
        return state["dist"][vertices]

    def propagate_values(
        self,
        state: ProgramState,
        src_values: np.ndarray,
        weights: Optional[np.ndarray],
    ) -> np.ndarray:
        return src_values + 1.0

    def result(self, state: ProgramState) -> np.ndarray:
        return state["dist"]

    def reference(
        self, graph: CSRGraph, source: Optional[int]
    ) -> Tuple[np.ndarray, int]:
        if source is None:
            raise WorkloadError("BFS needs a source vertex")
        levels, edges = reference.bfs_distances(graph, source)
        out = np.where(
            levels == reference.UNREACHED, np.inf, levels.astype(np.float64)
        )
        return out, edges
