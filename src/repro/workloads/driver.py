"""Timing-free functional executor for vertex programs.

Runs a program to its fixed point with no architecture model at all:
each round, every active vertex propagates over all its edges and all
messages reduce.  Monotone async programs (BFS/SSSP/CC) converge to the
same fixed point as any legal asynchronous schedule, and BSP programs
execute their exact superstep semantics -- so this driver is the
semantic oracle the architectural engines are tested against, and a
fast way to run workloads when no timing output is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import WorkloadError
from repro.graph.csr import CSRGraph
from repro.workloads.base import ProgramState, VertexProgram, expand_edges


@dataclass
class FunctionalRun:
    """Result of a functional execution."""

    state: ProgramState
    result: np.ndarray
    rounds: int
    messages: int
    edges_traversed: int
    #: Messages that changed a vertex's state.
    useful_messages: int
    #: Edges each round expanded, in round order.
    round_edges: List[int]


def run_functional(
    program: VertexProgram,
    graph: CSRGraph,
    source: Optional[int] = None,
    max_rounds: int = 1_000_000,
) -> FunctionalRun:
    """Execute ``program`` on ``graph`` to completion, without timing."""
    program.check_graph(graph)
    state = program.create_state(graph, source)
    active = np.unique(program.initial_active(state))
    rounds = 0
    messages = 0
    useful = 0
    round_edges = []
    while active.size:
        rounds += 1
        if rounds > max_rounds:
            raise WorkloadError(
                f"{program.name} did not converge in {max_rounds} rounds"
            )
        prop_graph = program.propagation_graph(state)
        values = program.snapshot(state, active)
        owner, dests, weights = expand_edges(prop_graph, active)
        round_edges.append(dests.shape[0])
        if dests.shape[0]:
            msg_values = program.propagate_values(state, values[owner], weights)
            messages += dests.shape[0]
            outcome = program.reduce(state, dests, msg_values)
            useful += outcome.useful_messages
        else:
            outcome = None
        if program.mode == "bsp":
            active = np.unique(program.superstep_end(state))
        else:
            active = (
                np.unique(outcome.improved)
                if outcome is not None
                else np.empty(0, dtype=np.int64)
            )
    return FunctionalRun(
        state=state,
        result=program.result(state),
        rounds=rounds,
        messages=messages,
        edges_traversed=sum(round_edges),
        useful_messages=useful,
        round_edges=round_edges,
    )
