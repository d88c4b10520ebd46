"""``sweep-warm``: the API path the figure benchmarks use.

Set-up prebuilds the graph store with ``repro graph build``.  A pass is
one fresh process (the sweep's parent, see ``sweep_pass.py``) that
makes one ``SweepRunner(workers=2)`` compute call over the grid on an
empty run cache, then identical calls that must be all cache hits.
Passes repeat until ``--seconds`` is spent.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from e2ebench import common, ledger, oracle, spans

SWEEP_PASS = os.path.join(common.HERE, "sweep_pass.py")

#: Grid: suite stand-in -> workloads, each at every GPN count.
GRID = {
    "suite:road": ("bfs", "sssp", "cc", "pr"),
    "suite:twitter": ("bfs", "pr"),
}
GPNS = (1, 2)
PR_SUPERSTEPS = 5
WORKERS = 2

SIZES = {
    "full": {"scale": 1.0 / 1024, "hit_calls": 6},
    "tiny": {"scale": 1.0 / 65536, "hit_calls": 1},
}

SETUP_REPEATS = 5


def _build(graph: str, seed: int, scale: float, store: str,
           trace_dir: Optional[str] = None) -> common.ChildResult:
    args = ["graph", "build", "--graph", graph, "--scale", repr(scale),
            "--seed", str(seed), "--workloads", ",".join(GRID[graph])]
    env = common.pinned_env(os.path.join(os.path.dirname(store), "build-cache"), store)
    return common.run_child(common.repro_argv(args, trace_dir, "setup"), env)


def _setup(seeds, scale, store, trace_dir=None) -> float:
    start = time.perf_counter()
    for graph, seed in seeds.items():
        child = _build(graph, seed, scale, store, trace_dir)
        if child.returncode != 0:
            raise RuntimeError(f"graph build failed: {child.stderr[-400:]}")
    return time.perf_counter() - start


def _source(graph: str, base, rng) -> int:
    """A seeded BFS/SSSP source whose traversal depth barely varies.

    On the road grid a source's eccentricity sets the quanta count, so
    it is drawn from the central quarter of the grid; on the power-law
    graph any non-isolated vertex reaches the giant component.
    """
    if graph == "suite:road":
        side = int(round(math.sqrt(base.num_vertices)))
        row, col = (side // 2 + int(rng.integers(-(side // 8), side // 8 + 1))
                    for _ in range(2))
        return row * side + col
    return int(rng.choice(np.flatnonzero(np.asarray(base.out_degrees()) > 0)))


def _cells(seeds, scale, store, rng) -> List[Dict]:
    """The grid's cells, with seeded BFS/SSSP sources."""
    from repro.graph.store import GraphStore, spec_digest
    from repro.runner import GraphSpec

    sources = {}
    for graph, seed in seeds.items():
        base = GraphStore(store).load(spec_digest(GraphSpec(graph, seed=seed, scale=scale)))
        sources[graph] = _source(graph, base, rng)
    cells = []
    for graph, workloads in GRID.items():
        for workload in workloads:
            for gpns in GPNS:
                cells.append({
                    "graph": graph, "seed": seeds[graph], "scale": scale,
                    "workload": workload, "gpns": gpns,
                    "source": sources[graph] if workload in ("bfs", "sssp") else None,
                    "kwargs": {"max_supersteps": PR_SUPERSTEPS} if workload == "pr" else {},
                })
    return cells


def _run_pass(plan, work, index, trace_dir=None) -> Dict:
    plan = dict(plan, cache_dir=work.sub(f"cache{index}"))
    plan_path = os.path.join(work.path, f"plan{index}.json")
    out_path = os.path.join(work.path, f"out{index}.json")
    with open(plan_path, "w", encoding="utf-8") as f:
        json.dump(plan, f)
    child = common.run_child(
        [sys.executable, SWEEP_PASS, plan_path, out_path, trace_dir or "-", f"pass{index}"],
        common.pinned_env(plan["cache_dir"], plan["store_dir"]),
    )
    if child.returncode != 0 or not os.path.exists(out_path):
        return {"error": f"sweep pass exit {child.returncode}: {child.stderr[-400:]}",
                "cache_dir": plan["cache_dir"]}
    with open(out_path, encoding="utf-8") as f:
        out = json.load(f)
    out["cache_dir"] = plan["cache_dir"]
    out["wall"] = out["compute"]["seconds"] + sum(h["seconds"] for h in out["hits"])
    return out


def _check_pass(out, plan, outcome: common.Outcome, reference: Dict) -> None:
    """Failures, the hit calls' zero computes, and answers vs the oracle."""
    from repro.runner import RunCache, spec_key

    from e2ebench.sweep_pass import build_specs

    cells = len(plan["cells"])
    calls = 1 + plan["hit_calls"]
    outcome.attempted += cells * calls
    if "error" in out:
        outcome.failed += cells * calls
        outcome.fail(out["error"])
        return
    for call in [out["compute"]] + out["hits"]:
        outcome.failed += call["failed"]
        for failure in call["failures"]:
            outcome.fail(failure)
    for call in out["hits"]:
        if call["computed"] or call["hits"] != call["total"] - call["deduped"]:
            outcome.failed += call["computed"]
            outcome.fail(f"hit call computed {call['computed']} cells")
    cache = RunCache(out["cache_dir"])
    for number, (cell, spec) in enumerate(zip(plan["cells"], build_specs(plan))):
        run = cache.load(spec_key(spec))
        label = f"{cell['workload']} {cell['graph']} gpns={cell['gpns']}"
        if run is None:
            outcome.failed += calls
            outcome.fail(f"{label}: result missing from the run cache")
            continue
        digest = oracle.result_sha256(run.result)
        if number in reference:
            if digest != reference[number]:
                outcome.failed += calls
                outcome.fail(f"{label}: result differs between passes")
            continue
        verdict = oracle.check_against_reference(
            cell["workload"], spec.resolve_graph(), cell["source"], run, cell["kwargs"]
        )
        if verdict is not None:
            outcome.failed += calls
            outcome.fail(f"{label}: {verdict}")
            continue
        reference[number] = digest


def measure(seed: int, seconds: float, size: str,
            trace_out: Optional[str]) -> common.Outcome:
    outcome = common.Outcome()
    rng = np.random.default_rng(seed)
    seeds = {graph: int(rng.integers(1, 2**31 - 1)) for graph in GRID}
    scale = SIZES[size]["scale"]
    work = common.WorkDir("sweep-warm")
    try:
        setups = []
        repeats = 1 if trace_out is not None else SETUP_REPEATS
        trace_dir = os.path.join(work.path, "spans") if trace_out is not None else None
        for repeat in range(repeats):
            store = work.sub(f"store{repeat}")
            setups.append(_setup(seeds, scale, store, trace_dir))
        common.pin_process_env(work.sub("verify-cache"), store)
        plan = {
            "cells": _cells(seeds, scale, store, rng),
            "workers": WORKERS,
            "hit_calls": SIZES[size]["hit_calls"],
            "store_dir": store,
        }
        reference: Dict[int, str] = {}

        def one_pass(index: int, traced: bool) -> Dict:
            out = _run_pass(plan, work, index, trace_dir if traced else None)
            _check_pass(out, plan, outcome, reference)
            return out

        passes, traced = common.repeat_passes(one_pass, seconds, trace_out is not None)
        good = [p for p in passes if "error" not in p]
        if not good or (traced is not None and "error" in traced):
            outcome.fail("no sweep pass completed")
            return outcome
        outcome.notes.update(passes=len(passes), cells=len(plan["cells"]),
                             hit_calls=plan["hit_calls"])
        if traced is None:
            outcome.metrics = {
                "setup_s": common.median(setups),
                "wall_s": common.median([p["wall"] for p in good]),
                "warm_p50_s": common.median([h["seconds"] for p in good for h in p["hits"]]),
                "compute_mean_s": common.mean([p["compute"]["seconds"] for p in good]),
                "peak_rss_mib": max(p["maxrss_kib"] for p in good) / 1024.0,
            }
            return outcome
        found = spans.load_spans(trace_dir)
        metrics = ledger.layer_metrics(found)
        metrics.update(traced["ledger"])
        metrics["bench.trace_overhead_ratio"] = traced["wall"] / good[0]["wall"] - 1.0
        calls = [traced["compute"]] + traced["hits"]
        metrics["bench.unattributed_s"] = ledger.unattributed(
            found, [{"op": "pass1", "start": c["start"], "end": c["start"] + c["seconds"]}
                    for c in calls])
        outcome.metrics = metrics
        outcome.notes.update(traced_wall_s=traced["wall"], spans=found)
        return outcome
    finally:
        work.close()
