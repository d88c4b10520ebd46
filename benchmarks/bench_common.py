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
Every case lowers through :func:`repro.runner.spec.lower_run`, as the
CLI's runs do: suite graphs are ``GraphSpec`` recipes resolved through
the graph artifact store, so a figure's graph is built once per host
and keyed from its manifest.

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

import dataclasses
import os
from typing import Dict, List, Optional, Tuple

from repro import scaled_config
from repro.core.metrics import RunResult
from repro.errors import SweepFailure
from repro.runner import RunFailure, RunSpec, SweepRunner, SweepStats
from repro.runner.spec import GraphSpec, lower_run, resolve_source

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

def _suite(name: str) -> GraphSpec:
    return GraphSpec(f"suite:{name}", scale=BENCH_SCALE)


def bench_graph(name: str):
    """Suite graph ``name`` at bench scale, mapped from the graph store."""
    return _suite(name).build()


def bench_source(name: str) -> int:
    """The default traversal source of ``name``: its highest-out-degree
    vertex, read from the store manifest."""
    return resolve_source(_suite(name), "bfs")


# ----------------------------------------------------------------------
# Systems and memoized runs
# ----------------------------------------------------------------------

def nova_config(num_gpns: int = 1, **updates):
    cfg = scaled_config(num_gpns=num_gpns, scale=BENCH_SCALE)
    return cfg.with_updates(**updates) if updates else cfg


_RUN_CACHE: Dict[Tuple, RunResult] = {}

_USE_DISK_CACHE = os.environ.get("REPRO_BENCH_CACHE", "1") != "0"
_RUNNER = SweepRunner(
    cache_dir=os.environ.get(
        "REPRO_CACHE_DIR", os.path.join(_RESULTS_DIR, "runcache")
    ),
    use_cache=_USE_DISK_CACHE,
)


def _case(
    workload: str,
    graph_name: str,
    system: str = "nova",
    num_gpns: int = 1,
    placement: str = "random",
    onchip: Optional[int] = None,
    config_updates: Optional[dict] = None,
) -> RunSpec:
    """One bench case as ``repro run`` would lower it, plus the
    ablation and sensitivity overrides of the system config."""
    kwargs = {"max_supersteps": PR_STEPS} if workload == "pr" else None
    spec = lower_run(
        workload,
        f"suite:{graph_name}",
        system=system,
        gpns=num_gpns,
        scale=BENCH_SCALE,
        placement=placement,
        onchip=onchip,
        workload_kwargs=kwargs,
    )
    if config_updates:
        spec = dataclasses.replace(
            spec, config=spec.config.with_updates(**config_updates)
        )
    return spec


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
    spec = _case(
        workload,
        graph_name,
        num_gpns=num_gpns,
        placement=placement,
        config_updates=config_updates,
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
        spec = _case(
            workload, graph_name, system="polygraph", onchip=onchip_bytes
        )
        _RUN_CACHE[key] = _RUNNER.run_one(spec)
    return _RUN_CACHE[key]


def run_ligra(workload: str, graph_name: str) -> RunResult:
    key = ("ligra", workload, graph_name)
    if key not in _RUN_CACHE:
        _RUN_CACHE[key] = _RUNNER.run_one(_case(workload, graph_name, "ligra"))
    return _RUN_CACHE[key]


