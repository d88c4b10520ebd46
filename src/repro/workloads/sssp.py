"""Single-source shortest paths: the paper's Algorithm 1, verbatim.

Asynchronous min-reduce over weighted edges; propagate ``dist + weight``.
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


class SSSP(VertexProgram):
    """dist[u] = min(dist[u], message); propagate dist[v] + w(v, u)."""

    name = "sssp"
    mode = "async"
    needs_weights = True

    def create_state(self, graph: CSRGraph, source: Optional[int]) -> ProgramState:
        self.check_graph(graph)
        if source is None:
            raise WorkloadError("SSSP needs a source vertex")
        if not 0 <= source < graph.num_vertices:
            raise WorkloadError(f"source {source} out of range")
        if graph.weights is not None and (graph.weights < 0).any():
            raise WorkloadError("SSSP requires non-negative weights")
        dist = np.full(graph.num_vertices, np.inf)
        dist[source] = 0.0
        return ProgramState(graph=graph, source=source, arrays={"dist": dist})

    def initial_active(self, state: ProgramState) -> np.ndarray:
        return np.array([state.source], dtype=np.int64)

    def reduce(
        self, state: ProgramState, dest: np.ndarray, values: np.ndarray
    ) -> ReduceOutcome:
        dist = state["dist"]
        old = dist[dest]  # pre-batch values, per message
        np.minimum.at(dist, dest, values)
        useful = int(np.count_nonzero(values < old))
        improved = unique_ids(dest[dist[dest] < old])
        return ReduceOutcome(useful_messages=useful, improved=improved)

    def snapshot(self, state: ProgramState, vertices: np.ndarray) -> np.ndarray:
        return state["dist"][vertices]

    def propagate_values(
        self,
        state: ProgramState,
        src_values: np.ndarray,
        weights: Optional[np.ndarray],
    ) -> np.ndarray:
        if weights is None:
            raise WorkloadError("SSSP propagation requires edge weights")
        return src_values + weights

    def result(self, state: ProgramState) -> np.ndarray:
        return state["dist"]

    def reference(
        self, graph: CSRGraph, source: Optional[int]
    ) -> Tuple[np.ndarray, int]:
        if source is None:
            raise WorkloadError("SSSP needs a source vertex")
        return reference.sssp_distances(graph, source)
