"""Call budget: Python-level calls per simulated quantum.

A quantum's fixed cost is the Python-level calls its phases make:
every numpy wrapper, method and ufunc call, and every engine, queue,
tracker and ledger method.  cProfile counts them exactly, so the count
is a deterministic proxy for per-quantum overhead that timing on a
shared host cannot pin.  Each budget below is the count measured when
the engine's per-quantum resources became one ledger, plus ~10%
headroom: a ratchet like ``tests/test_imports.py``'s
``COLD_RUN_BUDGET``.  Lower it when a change makes the count fall;
raise it only with a reason.

The count includes the calls numpy's own Python wrappers make (about a
tenth of it), and those change with the numpy release and the
interpreter, so the budgets are keyed by the (Python, numpy) minor
versions they were measured on, and an unmeasured pair fails with the
counts to add.  ``python tests/core/test_call_budget.py`` prints them.
"""

import cProfile
import pstats
import sys

import numpy as np
import pytest

from repro.core.engine import NovaEngine
from repro.core.system import NovaSystem
from repro.graph.generators import rmat, road_grid, with_uniform_weights
from repro.sim.config import scaled_config

#: Most calls per quantum each cell may make inside ``NovaEngine.run``,
#: per (Python minor, numpy minor) version pair.
CALL_BUDGET = {
    ((3, 11), (2, 4)): {
        # 80 quanta: 513 calls per quantum before the ledger, 275 after.
        "sssp_road": 302,
        # 106 quanta: 326 calls per quantum before the ledger, 165 after.
        "pr_rmat": 181,
    },
}


def _sssp_road():
    graph = with_uniform_weights(road_grid(40, 40, diagonal_fraction=0.0), seed=7)
    return "sssp", graph, 1, 0


def _pr_rmat():
    return "pr", rmat(9, 8, seed=5), 2, None


CELLS = {"sssp_road": _sssp_road, "pr_rmat": _pr_rmat}


def version_pair():
    """(Python minor, numpy minor) of this interpreter."""
    numpy_minor = tuple(int(part) for part in np.__version__.split(".")[:2])
    return tuple(sys.version_info[:2]), numpy_minor


def calls_per_quantum(cell):
    """Calls cProfile counts inside one untraced ``NovaEngine.run``."""
    workload, graph, num_gpns, source = CELLS[cell]()
    profiler = cProfile.Profile()
    run = NovaEngine.run

    def profiled(self):
        profiler.enable()
        try:
            return run(self)
        finally:
            profiler.disable()

    config = scaled_config(num_gpns=num_gpns, scale=1.0 / 1024.0)
    NovaEngine.run = profiled
    try:
        result = NovaSystem(config, graph).run(workload, source=source)
    finally:
        NovaEngine.run = run
    assert result.timeline is None
    return pstats.Stats(profiler).total_calls / result.quanta, result.quanta


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_calls_per_quantum_within_budget(cell):
    pair = version_pair()
    if pair not in CALL_BUDGET:
        pytest.fail(
            f"no call budget measured for Python {pair[0]} with numpy "
            f"{pair[1]}: run `python tests/core/test_call_budget.py` and "
            f"add its counts plus ~10% to CALL_BUDGET"
        )
    per_quantum, quanta = calls_per_quantum(cell)
    assert per_quantum <= CALL_BUDGET[pair][cell], (
        f"{cell}: {per_quantum:.1f} calls per quantum over {quanta} quanta "
        f"(budget {CALL_BUDGET[pair][cell]})"
    )


if __name__ == "__main__":
    print(f"Python / numpy minor versions: {version_pair()}")
    for name in sorted(CELLS):
        per_quantum, quanta = calls_per_quantum(name)
        print(f"{name}: {per_quantum:.1f} calls per quantum over {quanta} quanta")
