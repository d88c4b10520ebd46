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
from repro.workloads.base import MinReduce, ProgramState


class BFS(MinReduce):
    """dist[u] = min(dist[u], message); propagate dist[v] + 1."""

    name = "bfs"

    def propagate_values(
        self,
        state: ProgramState,
        src_values: np.ndarray,
        weights: Optional[np.ndarray],
    ) -> np.ndarray:
        return src_values + 1.0

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
