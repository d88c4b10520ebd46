"""Betweenness centrality (single source, unweighted) in BSP mode.

Brandes' algorithm as two chained level-synchronous phases:

- **forward**: count shortest paths (``sigma``) level by level along
  forward edges;
- **backward**: accumulate dependencies (``delta``) from the deepest
  level inward along *transpose* edges.

The backward pass is why the paper notes BC "doubles the number of edges
required to be stored" -- propagation needs the reverse adjacency.  The
transpose is built lazily on the first backward superstep.

Level synchrony makes the message filtering exact: during a backward
superstep whose senders sit at depth ``d``, any transpose edge landing on
a vertex at depth ``d - 1`` is by construction a shortest-path DAG edge.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.graph.csr import CSRGraph
from repro.workloads import reference
from repro.workloads.base import ProgramState, ReduceOutcome, VertexProgram


class BetweennessCentrality(VertexProgram):
    """Forward: sigma accumulation; backward: delta accumulation."""

    name = "bc"
    mode = "bsp"

    def create_state(self, graph: CSRGraph, source: Optional[int]) -> ProgramState:
        if source is None:
            raise WorkloadError("BC needs a source vertex")
        if not 0 <= source < graph.num_vertices:
            raise WorkloadError(f"source {source} out of range")
        n = graph.num_vertices
        depth = np.full(n, -1, dtype=np.int64)
        depth[source] = 0
        sigma = np.zeros(n)
        sigma[source] = 1.0
        state = ProgramState(
            graph=graph,
            source=source,
            arrays={
                "depth": depth,
                "sigma": sigma,
                "delta": np.zeros(n),
                "accum": np.zeros(n),
            },
        )
        state.scalars["phase"] = "forward"
        state.scalars["level"] = 0
        state.scalars["levels"] = [np.array([source], dtype=np.int64)]
        state.scalars["transpose"] = None
        state.scalars["back_level"] = None
        return state

    def initial_active(self, state: ProgramState) -> np.ndarray:
        return np.array([state.source], dtype=np.int64)

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------

    def reduce(
        self, state: ProgramState, dest: np.ndarray, values: np.ndarray
    ) -> ReduceOutcome:
        depth = state["depth"]
        accum = state["accum"]
        if state.scalars["phase"] == "forward":
            # Only undiscovered vertices join the next level.
            mask = depth[dest] == -1
        else:
            # Only predecessors (one level up) accept dependency shares.
            accept = state.scalars["back_level"] - 1
            mask = depth[dest] == accept
        np.add.at(accum, dest[mask], values[mask])
        return ReduceOutcome(
            useful_messages=int(np.count_nonzero(mask)),
            improved=np.empty(0, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def snapshot(self, state: ProgramState, vertices: np.ndarray) -> np.ndarray:
        if state.scalars["phase"] == "forward":
            return state["sigma"][vertices]
        sigma = state["sigma"][vertices]
        return (1.0 + state["delta"][vertices]) / sigma

    def propagation_graph(self, state: ProgramState) -> CSRGraph:
        if state.scalars["phase"] == "forward":
            return state.graph
        if state.scalars["transpose"] is None:
            state.scalars["transpose"] = state.graph.transpose()
        return state.scalars["transpose"]

    # ------------------------------------------------------------------
    # Barrier
    # ------------------------------------------------------------------

    def superstep_end(self, state: ProgramState) -> np.ndarray:
        if state.scalars["phase"] == "forward":
            return self._forward_barrier(state)
        return self._backward_barrier(state)

    def _forward_barrier(self, state: ProgramState) -> np.ndarray:
        depth, sigma, accum = state["depth"], state["sigma"], state["accum"]
        fresh = np.flatnonzero((accum > 0) & (depth == -1))
        if fresh.size:
            state.scalars["level"] += 1
            depth[fresh] = state.scalars["level"]
            sigma[fresh] = accum[fresh]
            accum[fresh] = 0.0
            state.scalars["levels"].append(fresh)
            return fresh
        # Forward pass drained: flip to backward from the deepest level.
        accum[:] = 0.0
        levels = state.scalars["levels"]
        state.scalars["phase"] = "backward"
        deepest = len(levels) - 1
        if deepest == 0:
            return np.empty(0, dtype=np.int64)  # isolated source
        state.scalars["back_level"] = deepest
        return levels[deepest]

    def _backward_barrier(self, state: ProgramState) -> np.ndarray:
        delta, sigma, accum = state["delta"], state["sigma"], state["accum"]
        levels = state.scalars["levels"]
        finished = state.scalars["back_level"]
        receivers = levels[finished - 1]
        delta[receivers] += sigma[receivers] * accum[receivers]
        accum[receivers] = 0.0
        state.scalars["back_level"] = finished - 1
        if state.scalars["back_level"] <= 0:
            return np.empty(0, dtype=np.int64)
        return levels[state.scalars["back_level"]]

    def result(self, state: ProgramState) -> np.ndarray:
        return state["delta"]

    def reference(
        self, graph: CSRGraph, source: Optional[int]
    ) -> Tuple[np.ndarray, int]:
        if source is None:
            raise WorkloadError("BC needs a source vertex")
        return reference.betweenness(graph, source)
