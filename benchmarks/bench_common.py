"""Shared helpers for the paper-reproduction benchmarks.

Every bench regenerates one table or figure of the paper (see DESIGN.md's
per-experiment index).  Experiments print a paper-vs-measured table; the
tables are buffered and dumped both to ``benchmarks/results/`` and to the
terminal after pytest's capture ends, so ``pytest benchmarks/
--benchmark-only`` shows them inline.

All simulation runs go through :class:`repro.runner.SweepRunner`: results
persist in a content-addressed on-disk cache keyed by config + graph
arrays + workload + source + package version, so re-running a figure
recomputes nothing, and multi-run experiments can prefetch their whole
case list through the runner's worker pool (see :func:`prefetch_nova`).

Environment knobs:

- ``REPRO_BENCH_SCALE``: linear suite scale (default 1/256; smaller is
  faster and proportionally shrinks on-chip capacities).
- ``REPRO_BENCH_PR_STEPS``: PageRank supersteps in timing runs (default 5).
- ``REPRO_BENCH_CACHE``: set to ``0`` to disable the on-disk run cache.
- ``REPRO_CACHE_DIR``: cache root (default
  ``benchmarks/results/runcache``).
- ``REPRO_WORKERS``: worker processes for prefetched sweeps.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro import (
    LigraConfig,
    LigraModel,
    NovaSystem,
    PolyGraphConfig,
    PolyGraphSystem,
    scaled_config,
)
from repro.core.metrics import RunResult
from repro.errors import SweepFailure
from repro.graph import suites
from repro.graph.generators import with_uniform_weights
from repro.runner import RunFailure, RunSpec, SweepRunner, SweepStats

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", 1.0 / 256.0))
PR_STEPS = int(os.environ.get("REPRO_BENCH_PR_STEPS", 5))

_REPORTS: List[str] = []
_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def emit(title: str, lines: List[str]) -> None:
    """Record one experiment's table for the terminal summary and disk."""
    block = "\n".join([f"== {title} ==", *lines, ""])
    _REPORTS.append(block)
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    # Keep enough of the title to make every experiment's file unique
    # (all seven ablations would otherwise collide on one name).
    stem = "".join(c if c.isalnum() else "_" for c in title.lower()).strip("_")
    while "__" in stem:
        stem = stem.replace("__", "_")
    filename = stem[:72] + ".txt"
    with open(os.path.join(_RESULTS_DIR, filename), "w", encoding="utf-8") as f:
        f.write(block)


# ----------------------------------------------------------------------
# Graphs and sources
# ----------------------------------------------------------------------

_GRAPH_CACHE: Dict[str, object] = {}
_WEIGHTED_CACHE: Dict[str, object] = {}
_SOURCE_CACHE: Dict[str, int] = {}


def bench_graph(name: str):
    if name not in _GRAPH_CACHE:
        _GRAPH_CACHE[name] = suites.build_graph(name, scale=BENCH_SCALE)
    return _GRAPH_CACHE[name]


def bench_weighted_graph(name: str):
    if name not in _WEIGHTED_CACHE:
        _WEIGHTED_CACHE[name] = with_uniform_weights(bench_graph(name), seed=7)
    return _WEIGHTED_CACHE[name]


def bench_symmetric_graph(name: str):
    key = name + ":sym"
    if key not in _WEIGHTED_CACHE:
        _WEIGHTED_CACHE[key] = bench_graph(name).symmetrized()
    return _WEIGHTED_CACHE[key]


def bench_source(name: str) -> int:
    if name not in _SOURCE_CACHE:
        graph = bench_graph(name)
        _SOURCE_CACHE[name] = int(np.argmax(graph.out_degrees()))
    return _SOURCE_CACHE[name]


# ----------------------------------------------------------------------
# Systems and memoized runs
# ----------------------------------------------------------------------

def nova_config(num_gpns: int = 1, **updates):
    cfg = scaled_config(num_gpns=num_gpns, scale=BENCH_SCALE)
    return cfg.with_updates(**updates) if updates else cfg


def polygraph_config(onchip_bytes: Optional[int] = None, **kwargs):
    if onchip_bytes is None:
        onchip_bytes = suites.scaled_onchip_bytes(BENCH_SCALE)
    return PolyGraphConfig(onchip_bytes=onchip_bytes, **kwargs)


_RUN_CACHE: Dict[Tuple, RunResult] = {}

_USE_DISK_CACHE = os.environ.get("REPRO_BENCH_CACHE", "1") != "0"
_RUNNER = SweepRunner(
    cache_dir=os.environ.get(
        "REPRO_CACHE_DIR", os.path.join(_RESULTS_DIR, "runcache")
    ),
    use_cache=_USE_DISK_CACHE,
)


def _graph_for(workload: str, graph_name: str):
    if workload == "sssp":
        return bench_weighted_graph(graph_name)
    if workload == "cc":
        return bench_symmetric_graph(graph_name)
    return bench_graph(graph_name)


def _workload_kwargs(workload: str) -> dict:
    return {"max_supersteps": PR_STEPS} if workload == "pr" else {}


def _source_for(workload: str, graph_name: str) -> Optional[int]:
    return None if workload in ("cc", "pr") else bench_source(graph_name)


def _nova_case(
    workload: str,
    graph_name: str,
    num_gpns: int,
    placement: str,
    config_updates: dict,
) -> Tuple[Tuple, RunSpec]:
    key = (
        "nova",
        workload,
        graph_name,
        num_gpns,
        placement,
        tuple(sorted(config_updates.items())),
    )
    spec = RunSpec(
        workload,
        _graph_for(workload, graph_name),
        config=nova_config(num_gpns, **config_updates),
        source=_source_for(workload, graph_name),
        placement=placement,
        workload_kwargs=_workload_kwargs(workload),
    )
    return key, spec


def run_nova(
    workload: str,
    graph_name: str,
    num_gpns: int = 1,
    placement: str = "random",
    **config_updates,
) -> RunResult:
    """Cached NOVA run at bench scale (random placement, paper default)."""
    key, spec = _nova_case(
        workload, graph_name, num_gpns, placement, config_updates
    )
    if key not in _RUN_CACHE:
        _RUN_CACHE[key] = _RUNNER.run_one(spec)
    return _RUN_CACHE[key]


def prefetch_nova(cases, strict: bool = True) -> Optional[SweepStats]:
    """Prime the run caches for many NOVA cases in one sweep.

    Each case is ``(workload, graph_name, num_gpns)`` optionally followed
    by a config-updates dict.  Uncached cases execute through the
    runner's worker pool, so a figure's whole grid computes in parallel
    before its ``run_nova`` calls resolve from cache.

    Failures no longer abort the whole prefetch: completed sibling runs
    are kept (memoized here and checkpointed in the disk cache as they
    finish).  With ``strict`` (the default for figure gates) a
    :class:`SweepFailure` is then raised listing every failed case;
    ``strict=False`` leaves the failed cases to recompute (and re-raise
    individually) in the figure's own ``run_nova`` calls.  Returns the
    sweep's stats, or ``None`` when everything was already memoized.
    """
    keys, specs = [], []
    for case in cases:
        updates = {}
        if case and isinstance(case[-1], dict):
            updates = case[-1]
            case = case[:-1]
        workload, graph_name, num_gpns = case
        key, spec = _nova_case(workload, graph_name, num_gpns, "random", updates)
        if key in _RUN_CACHE or key in keys:
            continue
        keys.append(key)
        specs.append(spec)
    if not specs:
        return None
    results, stats = _RUNNER.run(specs, on_failure="return")
    failures = [r for r in results if isinstance(r, RunFailure)]
    _RUN_CACHE.update(
        (key, result)
        for key, result in zip(keys, results)
        if not isinstance(result, RunFailure)
    )
    if failures and strict:
        raise SweepFailure(failures, stats=stats)
    return stats


def run_polygraph(
    workload: str, graph_name: str, onchip_bytes: Optional[int] = None
) -> RunResult:
    key = ("pg", workload, graph_name, onchip_bytes)
    if key not in _RUN_CACHE:
        spec = RunSpec(
            workload,
            _graph_for(workload, graph_name),
            config=polygraph_config(onchip_bytes),
            system="polygraph",
            source=_source_for(workload, graph_name),
            workload_kwargs=_workload_kwargs(workload),
        )
        _RUN_CACHE[key] = _RUNNER.run_one(spec)
    return _RUN_CACHE[key]


def run_ligra(workload: str, graph_name: str) -> RunResult:
    key = ("ligra", workload, graph_name)
    if key not in _RUN_CACHE:
        spec = RunSpec(
            workload,
            _graph_for(workload, graph_name),
            config=LigraConfig(),
            system="ligra",
            source=_source_for(workload, graph_name),
            workload_kwargs=_workload_kwargs(workload),
        )
        _RUN_CACHE[key] = _RUNNER.run_one(spec)
    return _RUN_CACHE[key]


