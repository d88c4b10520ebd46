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
from repro.workloads.base import (
    ProgramState,
    ReduceOutcome,
    VertexProgram,
    unique_ids,
)


class ConnectedComponents(VertexProgram):
    """label[u] = min(label[u], message); propagate label[v]."""

    name = "cc"
    mode = "async"

    def create_state(self, graph: CSRGraph, source: Optional[int]) -> ProgramState:
        labels = np.arange(graph.num_vertices, dtype=np.float64)
        return ProgramState(graph=graph, source=None, arrays={"labels": labels})

    def initial_active(self, state: ProgramState) -> np.ndarray:
        return np.arange(state.graph.num_vertices, dtype=np.int64)

    def reduce(
        self, state: ProgramState, dest: np.ndarray, values: np.ndarray
    ) -> ReduceOutcome:
        labels = state["labels"]
        old = labels[dest]  # pre-batch values, per message
        np.minimum.at(labels, dest, values)
        useful = int(np.count_nonzero(values < old))
        improved = unique_ids(dest[labels[dest] < old])
        return ReduceOutcome(useful_messages=useful, improved=improved)

    def snapshot(self, state: ProgramState, vertices: np.ndarray) -> np.ndarray:
        return state["labels"][vertices]

    def propagate_values(
        self,
        state: ProgramState,
        src_values: np.ndarray,
        weights: Optional[np.ndarray],
    ) -> np.ndarray:
        return src_values

    def result(self, state: ProgramState) -> np.ndarray:
        return state["labels"]

    def reference(
        self, graph: CSRGraph, source: Optional[int]
    ) -> Tuple[np.ndarray, int]:
        labels, edges = reference.connected_components(graph)
        return labels.astype(np.float64), edges
