"""Single-source shortest paths: the paper's Algorithm 1, verbatim.

Asynchronous min-reduce over weighted edges; propagate ``dist + weight``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.graph.csr import CSRGraph
from repro.workloads import reference
from repro.workloads.base import MinReduce, ProgramState


class SSSP(MinReduce):
    """dist[u] = min(dist[u], message); propagate dist[v] + w(v, u)."""

    name = "sssp"
    needs_weights = True

    def create_state(self, graph: CSRGraph, source: Optional[int]) -> ProgramState:
        self.check_graph(graph)
        if graph.weights is not None and (graph.weights < 0).any():
            raise WorkloadError("SSSP requires non-negative weights")
        return super().create_state(graph, source)

    def propagate_values(
        self,
        state: ProgramState,
        src_values: np.ndarray,
        weights: Optional[np.ndarray],
    ) -> np.ndarray:
        if weights is None:
            raise WorkloadError("SSSP propagation requires edge weights")
        return src_values + weights

    def reference(
        self, graph: CSRGraph, source: Optional[int]
    ) -> Tuple[np.ndarray, int]:
        if source is None:
            raise WorkloadError("SSSP needs a source vertex")
        return reference.sssp_distances(graph, source)
