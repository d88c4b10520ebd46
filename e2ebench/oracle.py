"""Correctness checks, all run outside the timed regions."""

from __future__ import annotations

import hashlib
from typing import List, Optional

import numpy as np

#: RunResult fields the vectorized and scalar engines must agree on.
_PARITY_FIELDS = (
    "elapsed_seconds", "quanta", "messages_sent", "messages_processed",
    "useful_messages", "redundant_messages", "coalesced_messages",
    "activations", "edges_traversed", "breakdown", "traffic", "utilization",
)


def engine_parity() -> List[str]:
    """Vectorized vs ``ScalarNovaEngine`` on a small graph, all workloads.

    Returns one message per mismatch (empty when identical).
    """
    from repro.core.system import NovaSystem
    from repro.graph.generators import rmat, with_uniform_weights
    from repro.sim.config import scaled_config

    base = rmat(7, 8, seed=11)
    graphs = {
        "bfs": base,
        "sssp": with_uniform_weights(base, seed=7),
        "cc": base.symmetrized(),
        "pr": base,
        "bc": base,
    }
    config = scaled_config(num_gpns=2)
    problems = []
    for workload, graph in graphs.items():
        source = int(np.argmax(graph.out_degrees()))
        if workload in ("cc", "pr"):
            source = None
        kwargs = {"max_supersteps": 3} if workload == "pr" else {}
        runs = [
            NovaSystem(config, graph, engine=engine).run(
                workload, source=source, **kwargs
            )
            for engine in ("scalar", "vectorized")
        ]
        if not np.array_equal(runs[0].result, runs[1].result):
            problems.append(f"parity {workload}: result arrays differ")
        for name in _PARITY_FIELDS:
            if getattr(runs[0], name) != getattr(runs[1], name):
                problems.append(f"parity {workload}: {name} differs")
    return problems


def check_against_reference(
    workload: str, graph, source: Optional[int], result, kwargs=None
) -> Optional[str]:
    """The sequential oracle's verdict on one RunResult (None = correct)."""
    from repro.core.system import verify_result
    from repro.workloads import get_workload

    program = get_workload(workload, **(kwargs or {}))
    expected, _ = program.reference(graph, source)
    try:
        verify_result(program.name, result.result, expected)
    except AssertionError as exc:
        return str(exc)
    return None


def result_sha256(values) -> str:
    return hashlib.sha256(np.asarray(values).tobytes()).hexdigest()
