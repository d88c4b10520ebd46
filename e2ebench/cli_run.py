"""``cli-run``: the interactive first-run path, one CLI child at a time.

Closed loop, one client.  Each cell runs a cold ``python -m repro run``
in a fresh interpreter against an empty graph store and run cache,
then the same command again (warm) on the now-populated roots.  The op
list (every cell, cold then warm) repeats until ``--seconds`` is spent;
each repetition ("pass") starts from empty roots again.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from e2ebench import common, ledger, oracle, spans

#: (workload, graph specifier) per cell: Table III archetypes at sizes
#: whose cold run fits the run budget (twitter- and host-like power
#: law graphs, a road grid).
CELLS = {
    "full": [
        ("bfs", "powerlaw:24000:35"),
        ("cc", "powerlaw:16000:35"),
        ("bfs", "powerlaw:32000:20"),
        ("sssp", "road:120:120"),
    ],
    "tiny": [
        ("bfs", "powerlaw:1500:8"),
        ("cc", "powerlaw:1000:8"),
        ("bfs", "powerlaw:1500:5"),
        ("sssp", "road:24:24"),
    ],
}

SETUP_REPEATS = 5


def plan(seed: int, size: str) -> List[Dict]:
    rng = np.random.default_rng(seed)
    return [
        {"workload": workload, "graph": graph,
         "seed": int(rng.integers(1, 2**31 - 1))}
        for workload, graph in CELLS[size]
    ]


def _setup(work: common.WorkDir) -> float:
    """Check the program imports in its pinned environment."""
    start = time.perf_counter()
    probe = common.run_child(
        [sys.executable, "-c", "import repro"],
        common.pinned_env(work.sub("probe-cache"), work.sub("probe-store")),
    )
    elapsed = time.perf_counter() - start
    if probe.returncode != 0:
        raise RuntimeError("the program does not import: " + probe.stderr[-400:])
    return elapsed


def _summary(stdout: str) -> List[str]:
    """The result lines of ``repro run`` (everything after hit/miss)."""
    return stdout.splitlines()[1:]


def _run_pass(cells, work, index, trace_dir=None) -> Dict:
    """Every cell cold then warm, each in a fresh interpreter."""
    pass_dir = work.sub(f"pass{index}")
    record = {"ops": [], "cells": []}
    start = time.perf_counter()
    for number, cell in enumerate(cells):
        cell_dir = os.path.join(pass_dir, f"cell{number}")
        env = common.pinned_env(
            os.path.join(cell_dir, "cache"), os.path.join(cell_dir, "store")
        )
        argv = ["run", "--workload", cell["workload"], "--graph",
                cell["graph"], "--seed", str(cell["seed"])]
        results = {}
        for phase in ("cold", "warm"):
            op = f"p{index}c{number}{phase}"
            op_start = time.perf_counter()
            child = common.run_child(common.repro_argv(argv, trace_dir, op), env)
            results[phase] = child
            record["ops"].append({"op": op, "phase": phase, "child": child,
                                  "start": op_start, "end": op_start + child.seconds})
        record["cells"].append((cell, cell_dir, results))
    record["wall"] = time.perf_counter() - start
    return record


def _check_pass(record, outcome: common.Outcome, reference: Dict) -> None:
    """Exit codes, hit/miss lines, and answers against the oracle."""
    from repro.graph.store import GraphStore, spec_digest
    from repro.runner import GraphSpec, RunCache
    from repro.runner.spec import resolve_source

    for number, (cell, cell_dir, results) in enumerate(record["cells"]):
        cold, warm = results["cold"], results["warm"]
        outcome.attempted += 2
        label = f"{cell['workload']} {cell['graph']}"
        bad = [r for r in (cold, warm) if r.returncode != 0]
        if bad:
            outcome.failed += len(bad)
            outcome.fail(f"{label}: exit {bad[0].returncode}: {bad[0].stderr[-300:]}")
            continue
        cold_line = cold.stdout.splitlines()[0] if cold.stdout else ""
        warm_line = warm.stdout.splitlines()[0] if warm.stdout else ""
        key12 = cold_line.split()[-1] if cold_line.startswith("cache miss") else None
        if key12 is None or warm_line.split()[:3] != ["cache", "hit", key12]:
            outcome.failed += 1
            outcome.fail(f"{label}: warm run was not a hit of the cold run")
            continue
        if _summary(cold.stdout) != _summary(warm.stdout):
            outcome.failed += 1
            outcome.fail(f"{label}: warm and cold runs print different results")
            continue
        cache = RunCache(os.path.join(cell_dir, "cache"))
        entries = [p for p, _, _ in cache.entries()]
        run = cache.load(os.path.basename(entries[0])[:-4]) if len(entries) == 1 else None
        if run is None:
            outcome.failed += 2
            outcome.fail(f"{label}: no single cached result")
            continue
        digest = oracle.result_sha256(run.result)
        if number in reference:
            if digest != reference[number]:
                outcome.failed += 2
                outcome.fail(f"{label}: result differs between passes")
            continue
        gspec = GraphSpec(cell["graph"], seed=cell["seed"],
                          weighted=cell["workload"] == "sssp",
                          symmetrized=cell["workload"] == "cc")
        graph = GraphStore(os.path.join(cell_dir, "store")).load(spec_digest(gspec))
        source = resolve_source(graph, cell["workload"], None)
        verdict = oracle.check_against_reference(cell["workload"], graph, source, run)
        if verdict is not None:
            outcome.failed += 2
            outcome.fail(f"{label}: {verdict}")
            continue
        reference[number] = digest


def measure(seed: int, seconds: float, size: str,
            trace_out: Optional[str]) -> common.Outcome:
    outcome = common.Outcome()
    cells = plan(seed, size)
    work = common.WorkDir("cli-run")
    try:
        setups = [_setup(work) for _ in range(SETUP_REPEATS)]
        reference: Dict[int, str] = {}
        trace_dir = os.path.join(work.path, "spans")

        def one_pass(index: int, traced: bool) -> Dict:
            record = _run_pass(cells, work, index, trace_dir if traced else None)
            _check_pass(record, outcome, reference)
            shutil.rmtree(os.path.join(work.path, f"pass{index}"), ignore_errors=True)
            return record

        passes, traced = common.repeat_passes(one_pass, seconds, trace_out is not None)
        ops = [op for p in passes for op in p["ops"]]

        def latency(op) -> float:
            child = op["child"]
            return child.seconds if child.returncode == 0 else common.FAILED_LATENCY

        warm = [latency(op) for op in ops if op["phase"] == "warm"]
        cold = [latency(op) for op in ops if op["phase"] == "cold"]
        outcome.notes.update(passes=len(passes), cells=len(cells),
                             warm_samples=len(warm), cold_samples=len(cold))
        if traced is None:
            outcome.metrics = {
                "setup_s": common.median(setups),
                "wall_s": common.median([p["wall"] for p in passes]),
                "warm_p50_s": common.median(warm),
                "compute_mean_s": common.mean(cold),
                "peak_rss_mib": common.children_maxrss_kib() / 1024.0,
            }
            return outcome
        found = spans.load_spans(trace_dir)
        # Unattributed time is what the recorded spans leave uncovered,
        # before the start-up and exit stretches are derived from it.
        gap = ledger.unattributed(found, traced["ops"])
        found += ledger.process_edges(found, traced["ops"])
        metrics = ledger.layer_metrics(found)
        metrics["bench.trace_overhead_ratio"] = traced["wall"] / passes[0]["wall"] - 1.0
        metrics["bench.unattributed_s"] = gap
        outcome.metrics = metrics
        outcome.notes.update(traced_wall_s=traced["wall"],
                             unattributed_share=gap / traced["wall"], spans=found)
        return outcome
    finally:
        work.close()
