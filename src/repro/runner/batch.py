"""Batched same-graph sweep execution.

An N-cell sweep grid typically varies (workload, config, source) over a
handful of graphs, yet the unbatched executor pays per-*cell* fixed
costs: one pool task dispatch, one spec pickle, one result pickle, one
graph-memo resolve, and one system construction per cell.  With the
mmap graph artifact store already amortizing graph *builds* (PR 6),
those dispatch-side costs dominate short cells.

This module groups a round's cells by graph identity and dispatches
each group as **one** worker task: the worker resolves the shared graph
once (a single memo/store lookup), reuses one :class:`NovaSystem` per
(config, placement) within the group -- ``NovaSystem.run`` constructs a
fresh engine per call, so reuse is bit-identical to building a system
per cell -- and runs the group's cells back-to-back.  Every completed
cell is flushed to the :class:`~repro.runner.cache.RunCache`
*individually and immediately* by the worker, so checkpoint/resume/
monitor semantics are unchanged and a mid-batch crash loses at most the
cell that was executing:

- cells already flushed are recovered from the cache by the parent;
- the first unflushed cell (execution is in order) is charged as the
  ``worker_died`` suspect and re-run in isolation;
- the remaining cells re-queue without consuming retry budget.

Per-cell SIGALRM timeouts and structured :class:`_Outcome` error
flattening apply inside the batch exactly as they do unbatched: one
raising or timing-out cell fails alone while its batchmates complete.

Grouping is by graph *identity*, not digest: a :class:`GraphSpec`
recipe is a frozen dataclass (equal recipes resolve to the same store
artifact), and in-memory :class:`CSRGraph` objects group by ``id()``
(specs sharing one parent-built graph object batch together).  Large
groups are chunked so one huge group still spreads across the worker
pool.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple, Union

from repro.runner.cache import RunCache, _config_token
from repro.runner.spec import GraphSpec, RunSpec


def group_cells(
    items: List[Tuple[str, RunSpec]], workers: int
) -> List[List[Tuple[str, RunSpec]]]:
    """Group (key, spec) cells by graph identity, chunked for the pool.

    The chunk size targets at least ``workers`` tasks overall so a
    single same-graph grid still keeps every worker busy; cells keep
    their submission order inside each chunk (in-order execution is
    what makes mid-batch crash recovery precise).
    """
    grouped: Dict[object, List[Tuple[str, RunSpec]]] = {}
    for key, spec in items:
        gid: object
        if isinstance(spec.graph, GraphSpec):
            gid = spec.graph
        else:
            gid = id(spec.graph)
        grouped.setdefault(gid, []).append((key, spec))
    chunk = max(1, math.ceil(len(items) / max(1, workers)))
    out: List[List[Tuple[str, RunSpec]]] = []
    for cells in grouped.values():
        for start in range(0, len(cells), chunk):
            out.append(cells[start:start + chunk])
    return out


def _system_token(spec: RunSpec, graph) -> tuple:
    """Reuse key for one system inside a batch.

    Two cells share a system only when every system-construction input
    matches: system kind, config contents, graph object, and placement
    (a prebuilt placement by identity, a strategy by name + seed --
    placement construction is seeded and deterministic, so reuse is
    bit-identical).
    """
    if isinstance(spec.placement, str):
        placement: object = (spec.placement, spec.placement_seed)
    else:
        placement = id(spec.placement)
    return (spec.system, _config_token(spec.config), id(graph), placement)


def _group_execute(spec: RunSpec, systems: dict):
    """Execute one batch cell, reusing systems across the group.

    Only the stock nova executors are system-reused; registered
    overrides (test injections, plugins) and the baseline systems run
    through :func:`execute_spec` untouched -- they still amortize the
    graph resolve via the per-process memo.
    """
    from repro.runner import sweep as _sweep

    executor = _sweep._SYSTEM_EXECUTORS.get(spec.system)
    if executor is _sweep._run_nova:
        graph = spec.resolve_graph()
        token = _system_token(spec, graph)
        system = systems.get(token)
        if system is None:
            system = _sweep._nova_system(spec)
            systems[token] = system
        return _sweep._nova_run(system, spec)
    return _sweep.execute_spec(spec)


def attempt_group(
    items: List[Tuple[str, RunSpec]],
    timeout: Optional[float],
    cache_root: Optional[str],
) -> List[Tuple[str, object]]:
    """Worker entry point: run a same-graph group back-to-back.

    Returns ``(key, _Outcome)`` pairs in submission order.  Each cell
    runs under its own SIGALRM watchdog and its own exception
    flattening, so one bad cell yields one failed outcome while the
    rest of the group completes.  Completed results are stored to the
    cache here, worker-side (``stored=True`` tells the parent to skip
    the redundant flush); a store failure leaves ``stored=False`` and
    the parent stores as usual.
    """
    from repro.runner.sweep import _attempt

    cache = RunCache(cache_root) if cache_root is not None else None
    systems: dict = {}
    outcomes: List[Tuple[str, object]] = []
    for key, spec in items:
        outcome = _attempt(
            spec, timeout, run=lambda s: _group_execute(s, systems)
        )
        if outcome.ok and cache is not None:
            try:
                cache.store(key, outcome.result)
                outcome.stored = True
            except OSError:
                pass  # parent-side flush will retry the store
        outcomes.append((key, outcome))
    return outcomes


def recover_group(
    group: List[Tuple[str, RunSpec]], cache: Optional[RunCache]
) -> List[Tuple[str, Union[object, str]]]:
    """Classify a group's cells after its worker died mid-batch.

    Cells whose results already landed in the cache (the worker flushes
    each cell as it completes) come back as successful outcomes; the
    first cell with no cached result is the one that was executing when
    the process died -- the ``worker_died`` suspect; every later
    unflushed cell returns the string ``"requeue"`` (innocent, re-run
    without charging retry budget).

    Without a cache there is no flush trail: the first cell is charged
    and the rest re-queue, which converges (each round isolates one
    more cell from the front) but re-runs lost work.
    """
    from repro.runner.sweep import _Outcome, _WORKER_DIED

    out: List[Tuple[str, Union[object, str]]] = []
    suspect_found = False
    for key, _spec in group:
        result = cache.load(key) if cache is not None else None
        if result is not None:
            out.append(
                (key, _Outcome(ok=True, result=result, stored=True))
            )
        elif not suspect_found:
            suspect_found = True
            out.append((key, _WORKER_DIED))
        else:
            out.append((key, "requeue"))
    return out
