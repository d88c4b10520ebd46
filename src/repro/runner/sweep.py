"""Execute independent simulations in supervised forked children, cache-first.

:class:`SweepRunner` takes a list of :class:`~repro.runner.spec.RunSpec`
and returns their :class:`~repro.core.metrics.RunResult` in order:

1. every spec's cache key is computed (a digest of config + graph
   arrays + workload + source + code version, see
   :mod:`repro.runner.cache`);
2. cached results are loaded and counted as *hits*;
3. the remaining unique keys run in forked children, at most
   ``workers`` at a time, and each child stores its result in the
   cache *the moment it finishes*, so an interrupted sweep resumes
   with zero recomputation.

Every computed cell runs the same way, whatever ``workers`` is: the
parent forks up to ``min(workers, cells)`` children, sends each one cell
index at a time, and enforces each cell's deadline by killing its child.
One spec that raises, times out, or kills its child does not abort its
siblings: a death charges only the cell that child was running, and a
replacement child takes the remaining cells.  Failed keys yield
structured :class:`~repro.runner.fault.RunFailure` records; transient
failures (child deaths, OOM, cache I/O, timeouts) re-enter the running
pool after an exponential backoff per the runner's
:class:`~repro.runner.fault.RetryPolicy`.
``on_failure="raise"`` (default) raises :class:`~repro.errors.SweepFailure`
*after* every sibling has completed and stored; ``on_failure="return"``
places the ``RunFailure`` records in the results list instead.

Children never rebuild graphs: computing the cache keys reads every
:class:`~repro.runner.spec.GraphSpec` recipe's facts in the parent
from the content-addressed :class:`~repro.graph.store.GraphStore`,
which builds each distinct graph at most once per host and publishes
it; a child maps the published artifact read-only (``np.memmap``, one
page-cache copy per host) on its first cell over it.  Forked children
inherit the registered executors, the environment and the trace
context, so the parent only ever sends an index.  Simulations are
deterministic, so a cache hit is bit-identical to recomputing.
"""

from __future__ import annotations

import heapq
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.metrics import RunResult
from repro.env import env_int
from repro.errors import ConfigError, SweepFailure
from repro.obs.counters import FAULT_COUNTERS
from repro.obs.tracing import trace_event, trace_span
from repro.runner.cache import RunCache, spec_key
from repro.runner.execute import _preload_executors, execute_spec
from repro.runner.fault import RetryPolicy, RunFailure, is_transient
from repro.runner.monitor import SweepMonitor
from repro.runner.spec import RunSpec

# ----------------------------------------------------------------------
# Supervised children
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
    #: True when the child already stored the result in the run cache;
    #: the parent then skips the redundant store.
    stored: bool = False


def _failed(exc: BaseException, elapsed_seconds: float = 0.0) -> _Outcome:
    """Flatten an exception to (type name, message): never unpicklable."""
    return _Outcome(
        ok=False,
        error_type=type(exc).__name__,
        message=str(exc),
        transient=is_transient(exc),
        elapsed_seconds=elapsed_seconds,
    )


def _attempt(key: str, spec: RunSpec, cache: Optional[RunCache]) -> _Outcome:
    """Run one cell in this child and store its result in the cache."""
    start = time.perf_counter()
    try:
        result = execute_spec(spec)
        elapsed = time.perf_counter() - start
        stored = False
        if cache is not None:
            try:
                cache.store(key, result)
                stored = True
            except OSError:
                pass  # the parent retries the store
    except Exception as exc:
        return _failed(exc, time.perf_counter() - start)
    return _Outcome(
        ok=True, result=result, elapsed_seconds=elapsed, stored=stored
    )


#: Signals a child restores to their defaults; blocked across the fork,
#: so none can reach the child before it has.
_CHILD_SIGNALS = (signal.SIGTERM, signal.SIGINT)


def _child_main(conn, cells, cache, inherited, mask) -> None:
    """Body of one forked child: run each cell index the parent sends.

    The child exits on a ``None`` index or on EOF, so it never outlives
    its parent.
    """
    # A child forked from ``repro serve`` inherits asyncio's wakeup fd:
    # a SIGTERM sent to the child would run the parent's drain handler.
    signal.set_wakeup_fd(-1)
    for signum in _CHILD_SIGNALS:
        signal.signal(signum, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    # The parent's ends of this runner's pipes: holding them would hide
    # the parent's exit from this child (and from its siblings).
    for other in inherited:
        other.close()
    while True:
        try:
            index = conn.recv()
        except EOFError:
            return
        if index is None:
            return
        outcome = _attempt(*cells[index], cache)
        try:
            conn.send(outcome)
        except OSError:
            return  # the parent is gone
        except Exception as exc:  # e.g. an unpicklable result
            conn.send(_failed(exc, outcome.elapsed_seconds))


#: Serializes forks across threads, so no thread's child inherits the
#: child-side pipe ends of another thread's child (which would hide that
#: child's death from its parent).
_FORK_LOCK = threading.Lock()


class _Child:
    """One forked child and the cell it is running."""

    def __init__(self, context, cells, cache, siblings) -> None:
        with _FORK_LOCK:
            self.conn, child_conn = context.Pipe()
            inherited = [child.conn for child in siblings] + [self.conn]
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, _CHILD_SIGNALS)
            try:
                self.process = context.Process(
                    target=_child_main,
                    args=(child_conn, cells, cache, inherited, mask),
                )
                self.process.start()
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                child_conn.close()
        self.index: Optional[int] = None
        self.started = 0.0
        self.deadline: Optional[float] = None
        self.exitcode: Optional[int] = None

    def assign(self, index: int, timeout: Optional[float]) -> None:
        self.index = index
        self.started = time.monotonic()
        self.deadline = None if timeout is None else self.started + timeout
        try:
            self.conn.send(index)
        except OSError:
            pass  # already dead: its sentinel charges the cell

    def receive(self) -> Optional[_Outcome]:
        """The child's answer, or ``None`` when it died without one."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            return None

    def close(self, kill: bool = False) -> None:
        """Stop the child (at once if ``kill``) and reap it."""
        from multiprocessing.connection import wait

        if kill:
            self.process.kill()
        else:
            try:
                self.conn.send(None)
            except OSError:
                pass
        self.conn.close()
        # Reap the exited child under the fork lock: ``Process.start``
        # in another thread polls (so may reap) every child we have.
        wait([self.process.sentinel])
        with _FORK_LOCK:
            self.process.join()
            self.exitcode = self.process.exitcode
            self.process.close()

    def died(self) -> _Outcome:
        code = self.exitcode
        if code is not None and code < 0:
            how = f"killed by {signal.Signals(-code).name}"
        else:
            how = f"exit code {code}"
        return _Outcome(
            ok=False,
            error_type="WorkerDied",
            message=f"child process died ({how}) before returning a result",
            transient=True,
            worker_died=True,
            elapsed_seconds=time.monotonic() - self.started,
        )


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------


def _default_workers() -> int:
    env = env_int("REPRO_WORKERS", minimum=1)
    if env is not None:
        return env
    return os.cpu_count() or 1


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
    """Run independent simulations with caching, forked children, and
    per-run fault isolation.

    Every computed cell runs in a forked child under the policy's
    deadline, also with ``workers=1``: so a runner driven from a thread
    (as ``repro serve`` drives its jobs) still enforces timeouts, and a
    spec that kills its process kills only its child.

    Args:
        workers: most children running at once; ``None`` reads
            ``REPRO_WORKERS`` and falls back to ``os.cpu_count()``.
        cache_dir: cache root; ``None`` uses
            :func:`~repro.runner.cache.default_cache_dir`.
        use_cache: set ``False`` to always recompute (and not store).
        policy: per-run timeout/retry policy; ``None`` reads
            ``REPRO_RUN_TIMEOUT`` / ``REPRO_RUN_RETRIES`` with defaults
            (no timeout, one retry for transient failures).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.workers = workers if workers is not None else _default_workers()
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        self.cache = RunCache(cache_dir) if use_cache else None
        self.policy = policy if policy is not None else RetryPolicy.from_env()
        # This runner forks its children: load the default executor now,
        # before any sweep starts its clock.
        _preload_executors(("nova",))

    def run_one(self, spec: RunSpec) -> RunResult:
        results, _ = self.run([spec])
        return results[0]

    def run(
        self,
        specs: Sequence[RunSpec],
        on_failure: str = "raise",
        monitor: Optional[SweepMonitor] = None,
    ) -> Tuple[List[Union[RunResult, RunFailure]], SweepStats]:
        """Execute ``specs``; returns results in input order plus stats.

        Identical specs (same cache key) are computed once even with
        caching disabled.  Completed results flush to the cache as they
        finish, so sibling work survives failures and interruptions.
        ``on_failure`` selects what a non-empty failure set does after
        every sibling completed: ``"raise"`` raises
        :class:`SweepFailure`, ``"return"`` leaves :class:`RunFailure`
        records in the failed slots.  ``monitor`` (a
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
            if monitor is not None:
                monitor.begin(unique, workers=self.workers)

            resolved: Dict[str, Union[RunResult, RunFailure]] = {}
            if self.cache is not None:
                for key in unique:
                    cached = self.cache.load(key)
                    if cached is not None:
                        resolved[key] = cached
                        if monitor is not None:
                            monitor.hit(key)
            stats.hits = len(resolved)

            todo = {
                key: spec
                for key, spec in unique.items()
                if key not in resolved
            }
            if todo:
                resolved.update(self._execute(todo, stats, monitor))
            failures = [
                value
                for value in resolved.values()
                if isinstance(value, RunFailure)
            ]
            stats.failed = len(failures)
            stats.computed = len(todo) - stats.failed

            if self.cache is not None and max_bytes is not None:
                self.cache.prune(max_bytes)

            # The registry also holds counters that are not the sweep's
            # (the service's and the graph store's families); keep only
            # the sweep's own.
            stats.fault_counters = {
                name: count
                for name, count in FAULT_COUNTERS.delta_since(
                    fault_base
                ).items()
                if name.startswith("sweep.")
            }
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
        monitor: Optional[SweepMonitor] = None,
    ) -> Dict[str, Union[RunResult, RunFailure]]:
        """Run ``todo``'s cells in forked children under their deadlines.

        Each child takes one ready cell index at a time from one queue
        of ``(ready_at, index)`` entries.  A transient failure with
        retries left goes back in after its backoff, for whichever
        child is idle then, the one that raised included.  A passed
        deadline kills the child (a timeout), a child that dies without
        answering charges only its own cell, and only those two fork a
        replacement.
        """
        # Fork keeps parent-built graphs shared copy-on-write and is the
        # only start method that needs no spawn-safe __main__ guard in
        # callers (pytest, notebooks).
        import multiprocessing
        from multiprocessing.connection import wait

        policy = self.policy
        timeout = policy.timeout_seconds
        cells = list(todo.items())
        _preload_executors({spec.system for _, spec in cells})
        context = multiprocessing.get_context("fork")
        slots = min(self.workers, len(cells))
        # A heap: every first attempt is ready at once, in input order.
        queue = [(0.0, index) for index in range(len(cells))]
        attempts = [0] * len(cells)
        resolved: Dict[str, Union[RunResult, RunFailure]] = {}
        children: List[_Child] = []
        settled: List[Tuple[int, _Outcome]] = []

        def due(now: float) -> bool:
            return bool(queue) and queue[0][0] <= now

        def hand_out(child: _Child) -> None:
            index = heapq.heappop(queue)[1]
            if attempts[index] and monitor is not None:
                monitor.running(cells[index][0])  # its backoff ran out
            child.assign(index, timeout)

        def settle(index: int, outcome: _Outcome) -> None:
            key, spec = cells[index]
            attempts[index] += 1
            seconds = outcome.elapsed_seconds
            if outcome.ok:
                resolved[key] = outcome.result
                if self.cache is not None:
                    try:  # the child stored it, unless its store failed
                        if not outcome.stored:
                            self.cache.store(key, outcome.result)
                        FAULT_COUNTERS.increment("sweep.checkpoint_flushes")
                    except OSError:  # still returned, just not reused
                        FAULT_COUNTERS.increment("sweep.cache_errors")
                FAULT_COUNTERS.observe("sweep.run_seconds", seconds)
                if monitor is not None:
                    monitor.finish(key, ok=True, elapsed_seconds=seconds)
                return
            if outcome.timed_out:
                FAULT_COUNTERS.increment("sweep.timeouts")
            if outcome.worker_died:
                FAULT_COUNTERS.increment("sweep.worker_deaths")
            if outcome.transient and policy.allows_retry(attempts[index]):
                delay = policy.backoff_delay(attempts[index])
                heapq.heappush(queue, (time.monotonic() + delay, index))
                stats.retried += 1
                FAULT_COUNTERS.increment("sweep.retries")
                if monitor is not None:
                    monitor.retry(key)
                trace_event("sweep.retry", key=key, attempt=attempts[index],
                            error=outcome.error_type)
                return
            kind = ("timeout" if outcome.timed_out
                    else "worker-died" if outcome.worker_died else "error")
            resolved[key] = RunFailure(
                key=key, spec=spec, kind=kind, error_type=outcome.error_type,
                message=outcome.message, attempts=attempts[index],
                elapsed_seconds=seconds,
            )
            FAULT_COUNTERS.increment("sweep.failures")
            if monitor is not None:
                monitor.finish(key, ok=False, elapsed_seconds=seconds)
            trace_event("sweep.run_failed", key=key, kind=kind,
                        error=outcome.error_type, attempts=attempts[index])

        if monitor is not None:
            for key, _ in cells:
                monitor.running(key)
        with trace_span("sweep.execute", runs=len(cells)):
            try:
                while True:
                    # Hand out the ready cells before settling the last
                    # answers, so no child idles while the parent stores.
                    now = time.monotonic()
                    for child in children:
                        if child.index is None and due(now):
                            hand_out(child)
                    while due(now) and len(children) < slots:
                        children.append(
                            _Child(context, cells, self.cache, children)
                        )
                        hand_out(children[-1])
                    for index, outcome in settled:
                        settle(index, outcome)
                    settled = []
                    busy = [c for c in children if c.index is not None]
                    if not busy and not queue:
                        break
                    # Wake at the earliest deadline, and when the next
                    # queued cell is due if a child is free to take it.
                    wakes = [c.deadline for c in busy
                             if c.deadline is not None]
                    if queue and len(busy) < slots:
                        wakes.append(queue[0][0])
                    ready = wait(
                        [c.conn for c in busy]
                        + [c.process.sentinel for c in busy],
                        None if not wakes
                        else max(0.0, min(wakes) - time.monotonic()),
                    )
                    now = time.monotonic()
                    for child in busy:
                        exited = child.process.sentinel in ready
                        if child.conn in ready:
                            outcome = child.receive()
                        elif exited:
                            outcome = None
                        elif (child.deadline is not None
                              and now >= child.deadline):
                            exited = True
                            outcome = _Outcome(
                                ok=False, error_type="RunTimeoutError",
                                message=f"run exceeded {timeout:g}s timeout",
                                transient=True, timed_out=True,
                                elapsed_seconds=now - child.started,
                            )
                        else:
                            continue
                        if exited or outcome is None:
                            child.close(kill=True)
                            children.remove(child)
                        settled.append((child.index, outcome or child.died()))
                        child.index = None
            finally:
                for child in children:
                    child.close(kill=child.index is not None)
        return resolved
