"""Execute independent simulations across a process pool, cache-first.

:class:`SweepRunner` takes a list of :class:`~repro.runner.spec.RunSpec`
and returns their :class:`~repro.core.metrics.RunResult` in order:

1. every spec's cache key is computed (a digest of config + graph
   arrays + workload + source + code version, see
   :mod:`repro.runner.cache`);
2. cached results are loaded and counted as *hits*;
3. the remaining unique keys are computed -- inline when one worker
   suffices, otherwise fanned out over a
   :class:`concurrent.futures.ProcessPoolExecutor` -- and each result
   is flushed to the cache *the moment it finishes* (futures-based
   submission, not a batch map), so an interrupted sweep resumes with
   zero recomputation.

Execution is fault-isolated: one spec that raises, times out, or kills
its forked worker does not abort its siblings.  Failed keys yield
structured :class:`~repro.runner.fault.RunFailure` records; transient
failures (worker deaths, OOM, cache I/O, timeouts) are retried with
exponential backoff per the runner's
:class:`~repro.runner.fault.RetryPolicy`.  Suspected worker-killing
specs are re-run in single-task isolation pools so a poisoned spec
cannot take sibling retries down with it.  ``on_failure="raise"``
(default) raises :class:`~repro.errors.SweepFailure` *after* every
sibling has completed and stored; ``on_failure="return"`` places the
``RunFailure`` records in the results list instead.

Workers never rebuild graphs: computing the cache keys resolves every
:class:`~repro.runner.spec.GraphSpec` recipe in the parent through the
content-addressed :class:`~repro.graph.store.GraphStore`, which builds
each distinct graph at most once per host and maps it back as read-only
``np.memmap`` arrays.  Forked workers inherit those mappings, and the
kernel page cache shares the underlying bytes across every worker (and
every other process) using the same artifact -- in-memory graphs are
still inherited copy-on-write.  Simulations are deterministic, so a
cache hit is bit-identical to recomputing.
"""

from __future__ import annotations

import importlib
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.metrics import RunResult
from repro.errors import ConfigError, RunTimeoutError, SweepFailure
from repro.obs.counters import FAULT_COUNTERS
from repro.obs.tracing import trace_event, trace_span
from repro.runner.cache import RunCache, spec_key
from repro.runner.checkpoint import SweepCheckpoint
from repro.runner.fault import RetryPolicy, RunFailure, env_int, is_transient
from repro.runner.monitor import SweepMonitor
from repro.runner.spec import RunSpec

# ----------------------------------------------------------------------
# System executors
# ----------------------------------------------------------------------

#: system name -> executor(spec) -> RunResult.  Forked workers inherit
#: registrations made in the parent before the pool spawns, so tests and
#: extensions can plug in executors without touching this module.
_SYSTEM_EXECUTORS: Dict[str, Callable[[RunSpec], RunResult]] = {}


def register_system(name: str, executor: Callable[[RunSpec], RunResult]) -> None:
    """Register (or replace) the executor behind a ``RunSpec.system``."""
    _SYSTEM_EXECUTORS[name] = executor


def _nova_system(spec: RunSpec):
    """Build the configured :class:`NovaSystem` for one spec."""
    from repro.core.system import NovaSystem
    from repro.sim.config import scaled_config

    graph = spec.resolve_graph()
    config = spec.config if spec.config is not None else scaled_config()
    return NovaSystem(
        config,
        graph,
        placement=spec.placement,
        seed=spec.placement_seed,
    )


def _nova_run(system, spec: RunSpec) -> RunResult:
    """Execute one spec on a prebuilt (possibly reused) system.

    ``NovaSystem.run`` constructs a fresh engine per call, so reusing
    one system across a batch of cells sharing (graph, config,
    placement) is bit-identical to building a system per cell -- only
    the placement construction is amortized.
    """
    from repro.obs.config import make_recorder

    return system.run(
        spec.workload,
        source=spec.source,
        max_quanta=spec.max_quanta,
        recorder=make_recorder(spec.obs),
        **spec.workload_kwargs,
    )


def _run_nova(spec: RunSpec) -> RunResult:
    return _nova_run(_nova_system(spec), spec)


def _run_polygraph(spec: RunSpec) -> RunResult:
    from repro.baselines.polygraph import PolyGraphConfig, PolyGraphSystem

    config = spec.config if spec.config is not None else PolyGraphConfig()
    return PolyGraphSystem(config, spec.resolve_graph()).run(
        spec.workload, source=spec.source, **spec.workload_kwargs
    )


def _run_ligra(spec: RunSpec) -> RunResult:
    from repro.baselines.ligra import LigraConfig, LigraModel

    config = spec.config if spec.config is not None else LigraConfig()
    return LigraModel(config, spec.resolve_graph()).run(
        spec.workload, source=spec.source, **spec.workload_kwargs
    )


register_system("nova", _run_nova)
register_system("polygraph", _run_polygraph)
register_system("ligra", _run_ligra)

#: Modules the built-in executors import on their first run.  numpy
#: itself imports ``numpy.random`` (random placement) and ``numpy.ma``
#: (``np.unique``) on first use.
_EXECUTOR_MODULES: Dict[str, Tuple[str, ...]] = {
    "nova": ("numpy.ma", "numpy.random", "repro.core.system"),
    "polygraph": ("repro.baselines.polygraph",),
    "ligra": ("repro.baselines.ligra",),
}


def _preload_executors(systems) -> None:
    """Import the named systems' executor modules in this process.

    Executors import their engines on first use, so a process that
    only answers from the cache never loads them.  A process about to
    fork pool workers must load them first: forked workers inherit the
    parent's modules, whereas an import left to the workers would be
    paid by every one of them, inside a timed attempt.
    """
    for system in systems:
        for module in _EXECUTOR_MODULES.get(system, ()):
            importlib.import_module(module)


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one simulation to completion (the worker entry point)."""
    if spec.system != "nova" and spec.obs is not None and spec.obs.active:
        raise ConfigError(
            "observability instrumentation is only supported for the "
            f"nova system, not {spec.system!r}"
        )
    executor = _SYSTEM_EXECUTORS.get(spec.system)
    if executor is None:
        raise ConfigError(
            f"unknown system {spec.system!r}; expected one of "
            f"{', '.join(sorted(_SYSTEM_EXECUTORS))}"
        )
    return executor(spec)


# ----------------------------------------------------------------------
# Worker attempt wrapper
# ----------------------------------------------------------------------


@dataclass
class _Outcome:
    """Transportable result of one attempt (always picklable)."""

    ok: bool
    result: Optional[RunResult] = None
    error_type: str = ""
    message: str = ""
    transient: bool = False
    timed_out: bool = False
    worker_died: bool = False
    elapsed_seconds: float = 0.0
    #: True when the producing worker already flushed the result to the
    #: run cache (batched execution stores worker-side for crash
    #: durability); the parent then skips the redundant store.
    stored: bool = False


def _execute_with_timeout(
    spec: RunSpec,
    timeout: Optional[float],
    run: Callable[[RunSpec], RunResult] = None,
) -> RunResult:
    """Run a spec under a SIGALRM watchdog (main-thread only).

    Pool workers always run tasks in their process's main thread, so
    the alarm is available there; an inline runner invoked off the main
    thread silently skips enforcement rather than crashing.

    A non-positive timeout raises :class:`ConfigError` -- ``0`` used to
    silently disable enforcement, which read as "timeout immediately".
    A pre-existing ``ITIMER_REAL`` (a caller's own watchdog) is re-armed
    on exit with whatever time it had left rather than being clobbered
    to zero.
    """
    if run is None:
        run = execute_spec
    if timeout is not None and timeout <= 0:
        raise ConfigError(
            f"timeout must be positive (or None to disable), got {timeout:g}"
        )
    if (
        timeout is None
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return run(spec)

    def _on_alarm(signum, frame):
        raise RunTimeoutError(f"run exceeded {timeout:g}s timeout")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    prior_timer = signal.setitimer(signal.ITIMER_REAL, timeout)
    started = time.monotonic()
    try:
        return run(spec)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if prior_timer[0] > 0.0:
            # Re-arm the interrupted watchdog with its remaining time
            # (floored so an already-expired timer still fires promptly
            # instead of being disarmed by a 0.0 value).
            remaining = max(prior_timer[0] - (time.monotonic() - started), 1e-6)
            signal.setitimer(signal.ITIMER_REAL, remaining, prior_timer[1])


def _attempt(
    spec: RunSpec,
    timeout: Optional[float],
    run: Callable[[RunSpec], RunResult] = None,
) -> _Outcome:
    """Run one spec, converting exceptions into a structured outcome.

    Exceptions are flattened to (type name, message) in the worker so
    unpicklable exception payloads can never poison the result queue.
    """
    start = time.perf_counter()
    try:
        result = _execute_with_timeout(spec, timeout, run=run)
    except Exception as exc:
        return _Outcome(
            ok=False,
            error_type=type(exc).__name__,
            message=str(exc),
            transient=is_transient(exc),
            timed_out=isinstance(exc, RunTimeoutError),
            elapsed_seconds=time.perf_counter() - start,
        )
    return _Outcome(
        ok=True, result=result, elapsed_seconds=time.perf_counter() - start
    )


_WORKER_DIED = _Outcome(
    ok=False,
    error_type="BrokenProcessPool",
    message="worker process died before returning a result",
    transient=True,
    worker_died=True,
)


def _traced_attempt(
    spec: RunSpec, timeout: Optional[float], trace_dir: str, token: str
) -> _Outcome:
    """:func:`_attempt` plus start/done breadcrumbs for victim forensics.

    When a shared pool collapses, *every* in-flight future raises
    ``BrokenProcessPool`` -- the parent cannot tell from the futures
    alone which task's process actually died.  Each task therefore
    drops a ``<token>.start`` marker (holding its worker pid) the
    moment it begins and a ``<token>.done`` marker when it returns;
    after the collapse the parent joins the markers against worker
    exit codes to charge only the true victim (see
    :meth:`SweepRunner._classify_collapse`).  Marker I/O failures are
    swallowed: forensics degrade to the conservative pre-fix behavior,
    they never fail a run.
    """
    try:
        with open(
            os.path.join(trace_dir, token + ".start"), "w", encoding="utf-8"
        ) as f:
            f.write(str(os.getpid()))
    except OSError:
        pass
    outcome = _attempt(spec, timeout)
    try:
        with open(
            os.path.join(trace_dir, token + ".done"), "w", encoding="utf-8"
        ) as f:
            f.write("")
    except OSError:
        pass
    return outcome


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------


def _default_workers() -> int:
    env = env_int("REPRO_WORKERS", minimum=1)
    if env is not None:
        return env
    return os.cpu_count() or 1


#: Free re-pool passes an innocent collapse sibling gets before it is
#: charged as a suspect anyway -- bounds the rounds a pool that keeps
#: collapsing before any task starts can spin without consuming budget.
_MAX_FREE_REQUEUES = 3


@dataclass
class SweepStats:
    """Accounting for one :meth:`SweepRunner.run` invocation.

    ``hits`` / ``computed`` / ``failed`` partition the sweep's *unique*
    cache keys; ``deduped`` counts the duplicate spec slots resolved by
    aliasing a sibling's key, so ``total == hits + computed + failed +
    deduped`` always holds.  ``retried`` counts re-executions granted to
    transient failures (not slots).  ``fault_counters`` holds this
    sweep's *own* ``sweep.*`` counter increments -- a delta against the
    process-wide :data:`~repro.obs.counters.FAULT_COUNTERS` registry, so
    consecutive sweeps in one process never bleed counts into each
    other.
    """

    total: int = 0
    hits: int = 0
    computed: int = 0
    failed: int = 0
    retried: int = 0
    deduped: int = 0
    fault_counters: Dict[str, int] = field(default_factory=dict)

    def __str__(self) -> str:
        text = (
            f"{self.total} runs: {self.hits} cached, {self.computed} computed"
        )
        if self.failed:
            text += f", {self.failed} failed"
        if self.retried:
            text += f", {self.retried} retried"
        if self.deduped:
            text += f", {self.deduped} deduped"
        return text


class SweepRunner:
    """Run independent simulations with caching, process parallelism,
    and per-run fault isolation.

    Args:
        workers: worker-process count; ``None`` reads ``REPRO_WORKERS``
            and falls back to ``os.cpu_count()``.  ``1`` runs inline
            (note: inline runs share the parent process, so a worker
            death cannot be isolated there).
        cache_dir: cache root; ``None`` uses
            :func:`~repro.runner.cache.default_cache_dir`.
        use_cache: set ``False`` to always recompute (and not store).
        policy: per-run timeout/retry policy; ``None`` reads
            ``REPRO_RUN_TIMEOUT`` / ``REPRO_RUN_RETRIES`` /
            ``REPRO_RETRY_BACKOFF`` with defaults (no timeout, one
            retry for transient failures).
        batch: group cells sharing a graph into one worker task each
            (see :mod:`repro.runner.batch`): the worker maps the graph
            once, reuses the system per config, and runs the group's
            cells back-to-back, flushing each result to the cache
            individually.  ``None`` reads ``REPRO_SWEEP_BATCH``
            (default off).  Results are bit-identical to unbatched
            execution; only per-task fixed costs are amortized.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        policy: Optional[RetryPolicy] = None,
        batch: Optional[bool] = None,
    ) -> None:
        self.workers = workers if workers is not None else _default_workers()
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        self.cache = RunCache(cache_dir) if use_cache else None
        self.policy = policy if policy is not None else RetryPolicy.from_env()
        if batch is None:
            batch = os.environ.get("REPRO_SWEEP_BATCH", "").strip() not in (
                "", "0", "false", "no",
            )
        self.batch = bool(batch)
        if self.workers > 1:
            # This runner forks its workers: load the default executor
            # now, before any sweep starts its clock.
            _preload_executors(("nova",))

    def run_one(self, spec: RunSpec) -> RunResult:
        results, _ = self.run([spec])
        return results[0]

    def run(
        self,
        specs: Sequence[RunSpec],
        on_failure: str = "raise",
        checkpoint: Optional[SweepCheckpoint] = None,
        monitor: Optional[SweepMonitor] = None,
    ) -> Tuple[List[Union[RunResult, RunFailure]], SweepStats]:
        """Execute ``specs``; returns results in input order plus stats.

        Identical specs (same cache key) are computed once even with
        caching disabled.  Completed results flush to the cache (and the
        optional ``checkpoint`` manifest) as they finish, so sibling
        work survives failures and interruptions.  ``on_failure``
        selects what a non-empty failure set does after every sibling
        completed: ``"raise"`` raises :class:`SweepFailure`,
        ``"return"`` leaves :class:`RunFailure` records in the failed
        slots.  ``monitor`` (a
        :class:`~repro.runner.monitor.SweepMonitor`) observes every
        per-key transition for live progress/ETA reporting; resumed
        runs reach it as cache hits, so prior completions count toward
        its progress from the first line.
        """
        if on_failure not in ("raise", "return"):
            raise ConfigError(
                f"on_failure must be 'raise' or 'return', got {on_failure!r}"
            )
        # Validate eviction config before burning any compute.
        max_bytes = env_int("REPRO_CACHE_MAX_BYTES", minimum=0)
        stats = SweepStats(total=len(specs))
        fault_base = FAULT_COUNTERS.snapshot()
        with trace_span("sweep.run", runs=len(specs), workers=self.workers):
            keys = [spec_key(spec) for spec in specs]
            unique: Dict[str, RunSpec] = {}
            for key, spec in zip(keys, specs):
                if key not in unique:
                    unique[key] = spec
            stats.deduped = len(keys) - len(unique)
            if checkpoint is not None:
                checkpoint.begin(total=len(unique))
            if monitor is not None:
                monitor.begin(unique, workers=self.workers)

            resolved: Dict[str, Union[RunResult, RunFailure]] = {}
            if self.cache is not None:
                for key in unique:
                    cached = self.cache.load(key)
                    if cached is not None:
                        resolved[key] = cached
                        if checkpoint is not None:
                            checkpoint.mark(key)
                        if monitor is not None:
                            monitor.hit(key)
            stats.hits = len(resolved)

            todo = {
                key: spec
                for key, spec in unique.items()
                if key not in resolved
            }
            if todo:
                resolved.update(
                    self._execute(todo, stats, checkpoint, monitor)
                )
            stats.failed = sum(
                1 for value in resolved.values() if isinstance(value, RunFailure)
            )
            stats.computed = len(todo) - stats.failed

            if self.cache is not None and max_bytes is not None:
                self.cache.prune(max_bytes)

            stats.fault_counters = FAULT_COUNTERS.delta_since(fault_base)
            if monitor is not None:
                monitor.end()
            trace_event(
                "sweep.summary",
                total=stats.total,
                hits=stats.hits,
                computed=stats.computed,
                failed=stats.failed,
                retried=stats.retried,
                deduped=stats.deduped,
                fault_counters=stats.fault_counters,
            )
            failures = [
                value
                for value in resolved.values()
                if isinstance(value, RunFailure)
            ]
            if failures and on_failure == "raise":
                raise SweepFailure(failures, stats=stats)
            return [resolved[key] for key in keys], stats

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute(
        self,
        todo: Dict[str, RunSpec],
        stats: SweepStats,
        checkpoint: Optional[SweepCheckpoint],
        monitor: Optional[SweepMonitor] = None,
    ) -> Dict[str, Union[RunResult, RunFailure]]:
        """Round-based attempt loop: submit, drain, classify, retry."""
        policy = self.policy
        resolved: Dict[str, Union[RunResult, RunFailure]] = {}
        attempts: Dict[str, int] = {key: 0 for key in todo}
        last_outcome: Dict[str, _Outcome] = {}
        requeue_counts: Dict[str, int] = {}
        pending: Dict[str, RunSpec] = dict(todo)
        round_index = 0

        def complete(key: str, outcome: _Outcome) -> None:
            attempts[key] += 1
            last_outcome[key] = outcome
            if outcome.ok:
                resolved[key] = outcome.result
                self._flush(key, outcome.result, checkpoint,
                            stored=outcome.stored)
                FAULT_COUNTERS.observe(
                    "sweep.run_seconds", outcome.elapsed_seconds
                )
                if monitor is not None:
                    monitor.finish(key, ok=True,
                                   elapsed_seconds=outcome.elapsed_seconds)
                return
            if outcome.timed_out:
                FAULT_COUNTERS.increment("sweep.timeouts")
            if outcome.worker_died:
                FAULT_COUNTERS.increment("sweep.worker_deaths")
            if outcome.transient and policy.allows_retry(attempts[key]):
                retries[key] = todo[key]
                stats.retried += 1
                FAULT_COUNTERS.increment("sweep.retries")
                if monitor is not None:
                    monitor.retry(key)
                trace_event(
                    "sweep.retry",
                    key=key,
                    attempt=attempts[key],
                    error=outcome.error_type,
                )
                return
            failure = RunFailure(
                key=key,
                spec=todo[key],
                kind=(
                    "timeout"
                    if outcome.timed_out
                    else "worker-died" if outcome.worker_died else "error"
                ),
                error_type=outcome.error_type,
                message=outcome.message,
                attempts=attempts[key],
                elapsed_seconds=outcome.elapsed_seconds,
            )
            resolved[key] = failure
            FAULT_COUNTERS.increment("sweep.failures")
            if monitor is not None:
                monitor.finish(key, ok=False,
                               elapsed_seconds=outcome.elapsed_seconds)
            trace_event(
                "sweep.run_failed",
                key=key,
                kind=failure.kind,
                error=failure.error_type,
                attempts=failure.attempts,
            )

        while pending:
            if round_index:
                delay = policy.backoff_delay(round_index)
                if delay:
                    time.sleep(delay)
            retries: Dict[str, RunSpec] = {}
            requeues: Dict[str, RunSpec] = {}

            def requeue(key: str) -> None:
                # An innocent sibling of a pool collapse: its process did
                # not die, it only lost its seat when the shared pool
                # broke.  Re-queue it for the next round without touching
                # its attempt count or the retry budget.  The free pass
                # is bounded so a pathological pool that keeps collapsing
                # before any task starts still terminates.
                if requeue_counts.get(key, 0) >= _MAX_FREE_REQUEUES:
                    complete(key, _WORKER_DIED)
                    return
                requeue_counts[key] = requeue_counts.get(key, 0) + 1
                requeues[key] = todo[key]
                FAULT_COUNTERS.increment("sweep.requeues")
                if monitor is not None:
                    monitor.requeue(key)
                trace_event(
                    "sweep.requeue", key=key, free_pass=requeue_counts[key]
                )

            # Keys whose worker died are suspects: re-run each in its own
            # single-task pool so a poisoned spec cannot keep breaking the
            # shared pool and draining sibling retry budgets.
            suspects = {
                key
                for key in pending
                if last_outcome.get(key) is not None
                and last_outcome[key].worker_died
            }
            if monitor is not None:
                for key in pending:
                    monitor.running(key)
            with trace_span(
                "sweep.execute", runs=len(pending), round=round_index
            ):
                self._run_round(pending, suspects, complete, requeue)
            pending = {**retries, **requeues}
            round_index += 1
        return resolved

    def _flush(
        self,
        key: str,
        result: RunResult,
        checkpoint: Optional[SweepCheckpoint],
        stored: bool = False,
    ) -> None:
        """Checkpoint one completed run the moment it finishes."""
        if self.cache is not None:
            if stored:
                # A batch worker already flushed this result to the
                # cache; count the flush, skip the redundant store.
                FAULT_COUNTERS.increment("sweep.checkpoint_flushes")
            else:
                try:
                    self.cache.store(key, result)
                    FAULT_COUNTERS.increment("sweep.checkpoint_flushes")
                except OSError:
                    # A full or flaky disk must not kill a completed run
                    # -- the result is still returned, it just won't be
                    # reused.
                    FAULT_COUNTERS.increment("sweep.cache_errors")
        if checkpoint is not None:
            checkpoint.mark(key)

    def _run_round(
        self,
        batch: Dict[str, RunSpec],
        suspects: set,
        complete: Callable[[str, _Outcome], None],
        requeue: Callable[[str], None],
    ) -> None:
        """Run one round, reporting each key's outcome as it settles."""
        timeout = self.policy.timeout_seconds
        if self.workers > 1:
            _preload_executors({spec.system for spec in batch.values()})
        pooled = [
            (key, spec) for key, spec in batch.items() if key not in suspects
        ]
        if pooled:
            if self.batch and len(pooled) > 1:
                self._run_grouped(pooled, timeout, complete, requeue)
            elif self.workers == 1:
                # Explicit single-worker mode runs inline (no isolation
                # from worker death, by construction).
                for key, spec in pooled:
                    complete(key, _attempt(spec, timeout))
            elif len(pooled) == 1:
                # Never run a lone leftover inline when the caller asked
                # for process isolation: a worker-killing spec would
                # take the parent down with it.
                key, spec = pooled[0]
                complete(key, self._run_isolated(spec, timeout))
            else:
                self._run_pooled(pooled, timeout, complete, requeue)
        for key in suspects:
            complete(key, self._run_isolated(batch[key], timeout))

    def _run_grouped(
        self,
        items: List[Tuple[str, RunSpec]],
        timeout: Optional[float],
        complete: Callable[[str, _Outcome], None],
        requeue: Callable[[str], None],
    ) -> None:
        """Batched execution: one worker task per same-graph cell group."""
        import multiprocessing

        from repro.runner.batch import (
            attempt_group,
            group_cells,
            recover_group,
        )

        groups = group_cells(items, self.workers)
        cache_root = self.cache.root if self.cache is not None else None
        trace_event(
            "sweep.batch_groups", cells=len(items), groups=len(groups)
        )
        if self.workers == 1:
            for group in groups:
                for key, outcome in attempt_group(group, timeout, cache_root):
                    complete(key, outcome)
            return
        context = multiprocessing.get_context("fork")
        pool_size = min(self.workers, len(groups))
        with ProcessPoolExecutor(
            max_workers=pool_size, mp_context=context
        ) as pool:
            futures = {
                pool.submit(attempt_group, group, timeout, cache_root): index
                for index, group in enumerate(groups)
            }
            for future in as_completed(futures):
                group = groups[futures[future]]
                try:
                    outcomes = future.result()
                except BrokenProcessPool:
                    # The group's worker died mid-batch.  Cells already
                    # flushed to the cache are recovered as completions;
                    # the first unflushed cell (execution is in order)
                    # is the suspect; the rest re-queue for free.
                    for key, action in recover_group(group, self.cache):
                        if action == "requeue":
                            requeue(key)
                        else:
                            complete(key, action)
                    continue
                except Exception as exc:
                    outcomes = [
                        (
                            key,
                            _Outcome(
                                ok=False,
                                error_type=type(exc).__name__,
                                message=str(exc),
                                transient=is_transient(exc),
                            ),
                        )
                        for key, _ in group
                    ]
                for key, outcome in outcomes:
                    complete(key, outcome)

    def _run_pooled(
        self,
        items: List[Tuple[str, RunSpec]],
        timeout: Optional[float],
        complete: Callable[[str, _Outcome], None],
        requeue: Callable[[str], None],
    ) -> None:
        # Fork keeps parent-built graphs shared copy-on-write and is the
        # only start method that needs no spawn-safe __main__ guard in
        # callers (pytest, notebooks).
        import multiprocessing
        import shutil
        import tempfile

        context = multiprocessing.get_context("fork")
        pool_size = min(self.workers, len(items))
        trace_dir = tempfile.mkdtemp(prefix="repro-sweep-trace-")
        broken: List[str] = []
        procs: Dict[int, object] = {}
        try:
            with ProcessPoolExecutor(
                max_workers=pool_size, mp_context=context
            ) as pool:
                futures = {
                    pool.submit(
                        _traced_attempt, spec, timeout, trace_dir, key
                    ): key
                    for key, spec in items
                }
                # Snapshot worker Process objects while the pool is
                # healthy: after a collapse their exit codes identify
                # the process that actually died (stdlib-private but
                # stable; forensics degrade gracefully without it).
                try:
                    procs = dict(getattr(pool, "_processes", None) or {})
                except Exception:
                    procs = {}
                for future in as_completed(futures):
                    key = futures[future]
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        broken.append(key)
                        continue
                    except Exception as exc:  # e.g. an unpicklable result
                        outcome = _Outcome(
                            ok=False,
                            error_type=type(exc).__name__,
                            message=str(exc),
                            transient=is_transient(exc),
                        )
                    complete(key, outcome)
            if broken:
                self._settle_collapse(
                    broken, trace_dir, procs, complete, requeue
                )
        finally:
            shutil.rmtree(trace_dir, ignore_errors=True)

    @staticmethod
    def _settle_collapse(
        broken_keys: List[str],
        trace_dir: str,
        procs: Dict[int, object],
        complete: Callable[[str, _Outcome], None],
        requeue: Callable[[str], None],
    ) -> None:
        """Charge only the collapse's true victim(s); free the innocents.

        One worker death breaks the whole shared pool, so every
        unfinished future raises ``BrokenProcessPool``.  The
        :func:`_traced_attempt` breadcrumbs separate three populations:

        - never started (no ``.start`` marker): queued behind the
          collapse -- innocent, re-pooled for free;
        - started and finished (``.done`` marker): the result was lost
          in the collapse but the process did not die -- innocent;
        - started, never finished: *candidate* victims.  A candidate is
          charged as ``worker_died`` only if its recorded worker pid
          exited abnormally (the pool's cleanup SIGTERMs the surviving
          workers, so exit codes ``0`` and ``-SIGTERM`` mark
          bystanders).  If no candidate's exit code is conclusive the
          whole candidate set is charged -- the conservative pre-fix
          behavior, never worse.
        """
        started_pid: Dict[str, int] = {}
        done: set = set()
        for key in broken_keys:
            start_path = os.path.join(trace_dir, key + ".start")
            if os.path.exists(start_path):
                try:
                    with open(start_path, encoding="utf-8") as f:
                        started_pid[key] = int(f.read().strip() or "0")
                except (OSError, ValueError):
                    started_pid[key] = 0
            if os.path.exists(os.path.join(trace_dir, key + ".done")):
                done.add(key)
        candidates = [
            key for key in broken_keys
            if key in started_pid and key not in done
        ]
        abnormal_pids = set()
        for pid, proc in procs.items():
            exitcode = getattr(proc, "exitcode", None)
            if exitcode is None:
                continue
            if exitcode != 0 and exitcode != -int(signal.SIGTERM):
                abnormal_pids.add(pid)
        victims = {
            key for key in candidates if started_pid.get(key) in abnormal_pids
        }
        if not victims:
            victims = set(candidates)
        trace_event(
            "sweep.pool_collapse",
            broken=len(broken_keys),
            victims=len(victims),
            requeued=len(broken_keys) - len(victims),
        )
        for key in broken_keys:
            if key in victims:
                complete(key, _WORKER_DIED)
            else:
                requeue(key)

    def _run_isolated(
        self, spec: RunSpec, timeout: Optional[float]
    ) -> _Outcome:
        """Re-run one worker-death suspect in a disposable one-task pool."""
        import multiprocessing

        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            future = pool.submit(_attempt, spec, timeout)
            try:
                return future.result()
            except BrokenProcessPool:
                return _WORKER_DIED
            except Exception as exc:
                return _Outcome(
                    ok=False,
                    error_type=type(exc).__name__,
                    message=str(exc),
                    transient=is_transient(exc),
                )
