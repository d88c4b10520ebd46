"""Execution-mode adapters.

NOVA "supports both asynchronous message-driven execution and
synchronous models" (Section II-B): the same workload can run under
either discipline.  :class:`BSPAdapter` wraps an asynchronous program
(BFS/SSSP/CC) so the engines run it level-synchronously -- reductions
apply immediately (they are monotone), but vertices improved during a
superstep only propagate after the barrier.

This is the paper's synchronous variant of Algorithm 1: the blue and
red blocks run in series, which trades the async mode's pipelining for
perfect work efficiency (each vertex propagates at most once per level
with its settled value).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.graph.csr import CSRGraph
from repro.workloads.base import ProgramState, ReduceOutcome, VertexProgram

_PENDING_KEY = "_bsp_pending_chunks"


class BSPAdapter(VertexProgram):
    """Run an asynchronous (monotone) vertex program under BSP."""

    mode = "bsp"

    def __init__(self, inner: VertexProgram) -> None:
        if inner.mode != "async":
            raise WorkloadError(
                f"BSPAdapter wraps async programs; {inner.name} is "
                f"{inner.mode}"
            )
        self.inner = inner
        self.name = f"{inner.name}-bsp"
        self.needs_weights = inner.needs_weights

    # ------------------------------------------------------------------
    # Delegation with barrier bookkeeping
    # ------------------------------------------------------------------

    def create_state(self, graph: CSRGraph, source: Optional[int]) -> ProgramState:
        state = self.inner.create_state(graph, source)
        state.scalars[_PENDING_KEY] = []
        return state

    def initial_active(self, state: ProgramState) -> np.ndarray:
        return self.inner.initial_active(state)

    def reduce(
        self, state: ProgramState, dest: np.ndarray, values: np.ndarray
    ) -> ReduceOutcome:
        outcome = self.inner.reduce(state, dest, values)
        if outcome.improved.shape[0]:
            state.scalars[_PENDING_KEY].append(outcome.improved)
        # Activation is deferred to the barrier.
        return ReduceOutcome(
            useful_messages=outcome.useful_messages,
            improved=np.empty(0, dtype=np.int64),
        )

    def superstep_end(self, state: ProgramState) -> np.ndarray:
        chunks = state.scalars[_PENDING_KEY]
        state.scalars[_PENDING_KEY] = []
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(chunks))

    # ------------------------------------------------------------------
    # Pure delegation
    # ------------------------------------------------------------------

    def snapshot(self, state: ProgramState, vertices: np.ndarray) -> np.ndarray:
        return self.inner.snapshot(state, vertices)

    def propagate_values(
        self,
        state: ProgramState,
        src_values: np.ndarray,
        weights: Optional[np.ndarray],
    ) -> np.ndarray:
        return self.inner.propagate_values(state, src_values, weights)

    def propagation_graph(self, state: ProgramState) -> CSRGraph:
        return self.inner.propagation_graph(state)

    def result(self, state: ProgramState) -> np.ndarray:
        return self.inner.result(state)

    def reference(
        self, graph: CSRGraph, source: Optional[int]
    ) -> Tuple[np.ndarray, int]:
        return self.inner.reference(graph, source)

    def check_graph(self, graph: CSRGraph) -> None:
        self.inner.check_graph(graph)
