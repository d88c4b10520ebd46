"""Asyncio job scheduler: admission, fairness, workers, drain.

The scheduler is the concurrency seam of the service: an asyncio front
end (submission, cancellation, long-poll events, shutdown drain) over
the existing *blocking* sweep machinery
(:class:`~repro.runner.sweep.SweepRunner` driven through
``asyncio.to_thread``).  The runner forks each job's run into a
supervised child from the executor thread, so per-run timeouts
(``REPRO_RUN_TIMEOUT``), crash isolation, and retries come from
:class:`~repro.runner.fault.RetryPolicy` unchanged: a hanging job
fails as ``timeout`` and a spec that kills its process fails as
``worker-died``, while the coordinator keeps serving.

Scheduling order is **priority, then per-client fairness, then FIFO**:
among queued jobs the highest ``priority`` wins; among clients at that
priority the one with the fewest dispatched jobs goes first (a
monotonic per-client fairness counter, so one chatty client cannot
starve others at equal priority); within a client, submission order.

Admission control is a bounded queue: past ``max_queue_depth`` waiting
jobs, submission raises a structured
:class:`~repro.errors.QueueFullError` (HTTP 429) carrying the depth,
the limit, and a retry hint derived from recent job throughput.
Per-tenant :class:`TenantQuotas` (active-job cap + token-bucket rate
limit) layer in front of the global depth check and raise the same
structured 429 family.  Before a job is ever queued its lowered spec
is digested and looked up in the
:class:`~repro.runner.cache.RunCache` -- an identical prior run (CLI,
sweep, or another client's job) resolves the job to ``done`` with zero
compute.

All ``service.*`` counters go to the process-wide
:data:`~repro.obs.counters.FAULT_COUNTERS` registry, which ``GET
/metrics`` snapshots.  The same registry carries the scheduler's typed
metrics: ``service.queue_depth`` / ``service.running_jobs`` gauges
(refreshed on every queue/running mutation) and the
``service.queue_wait_seconds`` (enqueue-to-dispatch latency) and
``service.run_seconds`` (dispatch-to-settle latency) histograms.

Every blocking call leaves the loop through ``asyncio.to_thread``, which
runs it in a copy of the caller's contextvars, so the thread's spans
and events join the caller's trace.  ``submit`` stamps the active
context (the request's) onto a spec that carries no ``trace`` of its
own, and admission's graph build runs under it; ``_execute`` activates
the job's recorded ``trace`` around dispatch, so ``_run_blocking`` and
the child it forks run under the job's trace, after a restart too.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import (
    ConfigError,
    JobSpecError,
    JobStateError,
    QueueFullError,
    QuotaExceededError,
    RateLimitedError,
    ServiceUnavailableError,
)
from repro.obs.counters import FAULT_COUNTERS
from repro.obs.trace_context import activate, current, parse_traceparent
from repro.obs.tracing import trace_event, trace_span
from repro.runner.cache import spec_key
from repro.runner.fault import RunFailure
from repro.runner.sweep import SweepRunner
from repro.service.store import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    SUBMITTED,
    Job,
    JobSpec,
    JobStore,
)


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/sec, capacity ``burst``."""

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate = float(rate)
        self.burst = max(1.0, float(burst))
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()
        self._lock = threading.Lock()

    def try_take(self, tokens: float = 1.0) -> float:
        """Take ``tokens``; returns 0.0 on success, else seconds to wait."""
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )
            self._stamp = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return 0.0
            if self.rate <= 0:
                return float("inf")
            return (tokens - self._tokens) / self.rate


@dataclass
class TenantQuotas:
    """Per-tenant quota + rate-limit admission policy.

    ``max_active`` caps a tenant's concurrently active (non-terminal)
    jobs; ``rate``/``burst`` bound submission frequency per tenant
    (``burst`` defaults to ``rate``, at least 1).  Either limit may be
    ``None`` (disabled); a set one must be usable, so a bad option
    fails at start-up instead of refusing every submission.  One
    instance serves every tenant: buckets are minted lazily per tenant
    name.  Violations raise the structured 429 family
    (:class:`~repro.errors.QuotaExceededError`,
    :class:`~repro.errors.RateLimitedError`) with a retry-after hint
    the HTTP layer and :class:`~repro.service.client.ServiceClient`
    carry end to end.
    """

    max_active: Optional[int] = None
    rate: Optional[float] = None
    burst: Optional[float] = None
    quota_retry_after: float = 1.0
    clock: Callable[[], float] = time.monotonic
    _buckets: Dict[str, TokenBucket] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def __post_init__(self) -> None:
        if self.max_active is not None and self.max_active < 1:
            raise ConfigError(
                f"quota max_active must be >= 1, got {self.max_active}"
            )
        if self.rate is not None and not (
            math.isfinite(self.rate) and self.rate > 0
        ):
            raise ConfigError(
                f"quota rate must be a positive number, got {self.rate}"
            )
        if self.burst is not None:
            if self.rate is None:
                raise ConfigError("quota burst needs a quota rate")
            if not (math.isfinite(self.burst) and self.burst >= 1):
                raise ConfigError(
                    f"quota burst must be a number >= 1, got {self.burst}"
                )

    def _bucket(self, tenant: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                burst = self.burst if self.burst is not None else max(
                    1.0, self.rate
                )
                bucket = TokenBucket(self.rate, burst, clock=self.clock)
                self._buckets[tenant] = bucket
            return bucket

    def admit(self, tenant: str, active: int) -> None:
        """Raise the structured 429 when ``tenant`` is over a limit."""
        if self.max_active is not None and active >= self.max_active:
            FAULT_COUNTERS.increment("service.quota_rejected")
            trace_event(
                "service.quota_rejected", tenant=tenant, active=active,
                limit=self.max_active,
            )
            raise QuotaExceededError(
                tenant,
                active=active,
                limit=self.max_active,
                retry_after_seconds=self.quota_retry_after,
            )
        if self.rate is not None:
            wait = self._bucket(tenant).try_take()
            if wait > 0:
                FAULT_COUNTERS.increment("service.rate_limited")
                trace_event("service.rate_limited", tenant=tenant, wait=wait)
                raise RateLimitedError(
                    tenant,
                    rate=self.rate,
                    retry_after_seconds=max(0.05, wait),
                )


class JobScheduler:
    """Drive jobs from a :class:`JobStore` through a :class:`SweepRunner`.

    Args:
        store: durable job records.
        runner: the blocking executor back end.  Each local job's run
            executes in a child the runner forks from the job's executor
            thread, so the run's timeout is enforced and a crashing spec
            fails only its own job.
        max_queue_depth: waiting jobs admitted before backpressure.
        job_workers: concurrently running jobs (asyncio workers, each
            occupying one executor thread while its job runs).
        quotas: optional :class:`TenantQuotas` applied per client at
            admission.
    """

    def __init__(
        self,
        store: JobStore,
        runner: Optional[SweepRunner] = None,
        max_queue_depth: int = 64,
        job_workers: int = 2,
        quotas=None,
        sessions=None,
    ) -> None:
        self.store = store
        self.runner = runner if runner is not None else SweepRunner(workers=1)
        #: Optional :class:`~repro.stream.session.SessionManager`; jobs
        #: whose spec names a session execute against its resident
        #: overlay in this process.
        self.sessions = sessions
        self.max_queue_depth = max(1, int(max_queue_depth))
        self.job_workers = max(1, int(job_workers))
        self.quotas = quotas
        self.draining = False
        self._queued: List[str] = []
        self._running: set = set()
        self._cond: Optional[asyncio.Condition] = None
        self._workers: List[asyncio.Task] = []
        self._events: Dict[str, List[Dict[str, Any]]] = {}
        self._fairness: Dict[str, int] = {}
        self._completions: Deque[float] = deque(maxlen=32)
        self._admitting = 0  # jobs between backpressure check and enqueue
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> int:
        """Recover persisted work and spawn the worker pool.

        Returns the number of jobs re-enqueued from a previous process
        (queued survivors plus crash-interrupted running jobs).
        """
        self._cond = asyncio.Condition()
        interrupted = self.store.counts()[RUNNING]
        resumable = self.store.recover()
        for job in resumable:
            if job.id in self._queued:
                continue  # submitted into this scheduler before start()
            self._queued.append(job.id)
            self._post_event(job.id, {"type": "state", "state": job.state,
                                      "recovered": True})
        self._publish_gauges()
        if interrupted:
            FAULT_COUNTERS.increment("service.recovered", interrupted)
        if resumable:
            FAULT_COUNTERS.increment("service.resumed", len(resumable))
            trace_event("service.recover", resumed=len(resumable),
                        interrupted=interrupted)
        self._workers = [
            asyncio.create_task(self._worker(i), name=f"job-worker-{i}")
            for i in range(self.job_workers)
        ]
        self._started = True
        async with self._cond:
            self._cond.notify_all()
        return len(resumable)

    async def drain(self, timeout: Optional[float] = None) -> Dict[str, int]:
        """Stop accepting and dispatching; wait for running jobs.

        Queued jobs stay ``queued`` in the durable store (a restarted
        server resumes them); running jobs get up to ``timeout`` seconds
        to finish, after which their worker tasks are cancelled and the
        jobs are left ``running`` in the store -- recovery requeues
        them.  Returns a summary of what drained.
        """
        self.draining = True
        if self._cond is not None:
            async with self._cond:
                self._cond.notify_all()
        drained = True
        if self._workers:
            done, pending = await asyncio.wait(
                self._workers, timeout=timeout
            )
            for task in pending:
                task.cancel()
                drained = False
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        counts = self.store.counts()
        summary = {
            "drained": int(drained),
            "queued": counts[QUEUED],
            "running": counts[RUNNING],
        }
        trace_event("service.drain", **summary)
        return summary

    # ------------------------------------------------------------------
    # Submission / cancellation
    # ------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._queued)

    def _active_count(self, client: str) -> int:
        """How many non-terminal jobs ``client`` currently owns."""
        return sum(
            1
            for job in self.store.jobs()
            if job.client == client and not job.terminal
        )

    def _retry_after(self) -> float:
        """Coarse backpressure hint from recent completion spacing."""
        if len(self._completions) < 2:
            return 1.0
        first, last = self._completions[0], self._completions[-1]
        interval = (last - first) / (len(self._completions) - 1)
        return min(30.0, max(1.0, interval))

    async def submit(
        self,
        spec: JobSpec,
        client: str = "anonymous",
        priority: int = 0,
    ) -> Job:
        """Admit one job: quotas, backpressure check, cache dedupe, enqueue.

        A spec without its own ``trace`` takes the active context (the
        request's, activated by the HTTP layer), so the job's spans
        stitch under the caller's span.
        """
        ctx = current()
        if spec.trace is None and ctx is not None:
            spec = dataclasses.replace(spec, trace=ctx.traceparent())
        if self.draining:
            raise ServiceUnavailableError(
                "service is draining and not accepting new jobs"
            )
        if self.quotas is not None:
            self.quotas.admit(client, self._active_count(client))
        depth = len(self._queued) + self._admitting
        if depth >= self.max_queue_depth:
            FAULT_COUNTERS.increment("service.rejected")
            trace_event(
                "service.backpressure",
                depth=depth,
                limit=self.max_queue_depth,
            )
            raise QueueFullError(
                depth=depth,
                limit=self.max_queue_depth,
                retry_after_seconds=self._retry_after(),
            )
        self._admitting += 1
        try:
            job = self.store.mint(spec, client=client, priority=priority)
            FAULT_COUNTERS.increment("service.submitted")
            self._post_event(job.id, {"type": "state", "state": SUBMITTED})

            # Digest the lowered spec and consult the run cache *before*
            # queueing -- graph building happens off-loop.
            try:
                key, cached, warmed = await asyncio.to_thread(
                    self._admit, spec
                )
            except Exception as exc:
                # The spec failed to lower (bad graph specifier, bad
                # config): record the failure, reject the submission.
                job.transition(FAILED)
                job.error_kind = "admission"
                job.error_type = type(exc).__name__
                job.error_message = str(exc)
                self.store.put(job)
                FAULT_COUNTERS.increment("service.failed")
                self._post_event(
                    job.id, {"type": "state", "state": FAILED}
                )
                raise JobSpecError(
                    f"job {job.id} rejected at admission: {exc}"
                ) from exc
            job.key = key
            if warmed:
                trace_event("service.graph_warm", job=job.id, **warmed)
            if cached:
                job.transition(DONE)
                job.cached = True
                self.store.put(job)
                FAULT_COUNTERS.increment("service.cache_hits")
                self._post_event(
                    job.id, {"type": "state", "state": DONE, "cached": True}
                )
                trace_event("service.cache_hit", job=job.id, key=key)
                return job

            job.transition(QUEUED)
            self.store.put(job)
            self._queued.append(job.id)
            self._publish_gauges()
        finally:
            self._admitting -= 1
        self._post_event(job.id, {"type": "state", "state": QUEUED})
        if self._cond is not None:
            async with self._cond:
                self._cond.notify()
        return job

    def _admit(self, spec: JobSpec) -> Tuple[str, bool, Dict[str, int]]:
        """Blocking half of admission: lower, digest, probe the cache.

        Digesting the spec reads its graph's facts, which *warms the
        graph artifact store before dispatch*: on a cold store the graph
        is built once and published here, so by the time any worker
        thread (or a sibling job sharing the recipe) picks the job up,
        every subsequent resolve is a zero-copy mmap of the published
        artifact; on a warm one only the manifest is read.  The returned
        ``graph_store.*`` counter delta records what the warm-up did
        (empty when the memo already had the facts).
        """
        run_spec = spec.to_run_spec()
        base = FAULT_COUNTERS.snapshot()
        key = spec_key(run_spec)
        warmed = {
            name: count
            for name, count in FAULT_COUNTERS.delta_since(base).items()
            if name.startswith("graph_store.")
        }
        if self.runner.cache is not None:
            if self.runner.cache.load(key) is not None:
                return key, True, warmed
        return key, False, warmed

    async def cancel(self, job_id: str) -> Job:
        """Cancel a waiting job.  Running or finished jobs refuse."""
        job = self.store.get(job_id)
        if job.state in (SUBMITTED, QUEUED):
            if job.id in self._queued:
                self._queued.remove(job.id)
                self._publish_gauges()
            job.transition(CANCELLED)
            self.store.put(job)
            FAULT_COUNTERS.increment("service.cancelled")
            self._post_event(job.id, {"type": "state", "state": CANCELLED})
            return job
        if job.state == RUNNING:
            raise JobStateError(
                f"job {job_id} is running and cannot be cancelled",
                state=job.state,
            )
        raise JobStateError(
            f"job {job_id} already settled as {job.state}", state=job.state
        )

    # ------------------------------------------------------------------
    # Scheduling order
    # ------------------------------------------------------------------

    def _pick_next(self) -> Optional[Job]:
        """Highest priority, then least-dispatched client, then FIFO."""
        best: Optional[Job] = None
        best_rank: Optional[Tuple[int, int, int]] = None
        for job_id in self._queued:
            try:
                job = self.store.get(job_id)
            except Exception:
                continue
            rank = (
                -job.priority,
                self._fairness.get(job.client, 0),
                job.seq,
            )
            if best_rank is None or rank < best_rank:
                best, best_rank = job, rank
        if best is not None:
            self._queued.remove(best.id)
        return best

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    async def _worker(self, index: int) -> None:
        assert self._cond is not None
        while True:
            async with self._cond:
                while not self.draining and not self._queued:
                    await self._cond.wait()
                if self.draining:
                    return
                job = self._pick_next()
                if job is None:
                    continue
            await self._execute(job)
            if self.draining:
                return

    def _publish_gauges(self) -> None:
        """Refresh the queue-depth / running-jobs gauges after mutation."""
        FAULT_COUNTERS.set_gauge("service.queue_depth", len(self._queued))
        FAULT_COUNTERS.set_gauge("service.running_jobs", len(self._running))

    async def _execute(self, job: Job) -> None:
        # Time in queue: the QUEUED transition stamped updated_at when
        # the job (or its crash-recovery requeue) was enqueued.
        FAULT_COUNTERS.observe(
            "service.queue_wait_seconds",
            max(0.0, time.time() - job.updated_at),
        )
        job.transition(RUNNING)
        job.attempts += 1
        self.store.put(job)
        self._running.add(job.id)
        self._publish_gauges()
        self._fairness[job.client] = self._fairness.get(job.client, 0) + 1
        FAULT_COUNTERS.increment("service.dispatched")
        self._post_event(job.id, {"type": "state", "state": RUNNING})

        run_start = time.perf_counter()
        with activate(parse_traceparent(job.spec.trace)):
            trace_event("service.dispatch", job=job.id, client=job.client,
                        priority=job.priority)
            try:
                outcome = await asyncio.to_thread(self._run_blocking, job)
            except Exception as exc:  # defensive: the runner returns failures
                outcome = RunFailure(
                    key=job.key or "",
                    spec=None,
                    kind="error",
                    error_type=type(exc).__name__,
                    message=str(exc),
                )
            finally:
                self._running.discard(job.id)
                self._publish_gauges()

            FAULT_COUNTERS.observe(
                "service.run_seconds", time.perf_counter() - run_start
            )
            self._settle(job, outcome)

    def _settle(self, job: Job, outcome) -> None:
        """Record one finished job's terminal state and notify pollers."""
        if isinstance(outcome, RunFailure):
            job.transition(FAILED)
            job.error_kind = outcome.kind
            job.error_type = outcome.error_type
            job.error_message = outcome.message
            self.store.put(job)
            FAULT_COUNTERS.increment("service.failed")
            self._post_event(
                job.id,
                {
                    "type": "state",
                    "state": FAILED,
                    "error": {
                        "kind": outcome.kind,
                        "error_type": outcome.error_type,
                        "message": outcome.message,
                    },
                },
            )
        else:
            job.transition(DONE)
            self.store.put(job)
            FAULT_COUNTERS.increment("service.completed")
            self._completions.append(time.monotonic())
            self._post_event(job.id, {"type": "state", "state": DONE})
        trace_event("service.settled", job=job.id, state=job.state)

    def _run_blocking(self, job: Job):
        """Executor-thread half: lower the spec and drive the runner.

        The runner consults the cache again (a sibling job with the
        same key may have finished while this one waited) and flushes
        the result to the cache the moment it completes, so the job
        only needs to remember its key.
        """
        if job.spec.session is not None and self.sessions is not None:
            # Session query: answered by the resident overlay in this
            # process; the result still lands in the run cache under the
            # version-digest key so a resubmit at the same version is a
            # pure cache hit.
            with trace_span("service.run", job=job.id):
                result = self.sessions.execute_job(job.spec)
            if job.key is None:
                job.key = spec_key(job.spec.to_run_spec())
            if self.runner.cache is not None:
                try:
                    self.runner.cache.store(job.key, result)
                except OSError:
                    FAULT_COUNTERS.increment("sweep.cache_errors")
            return result
        run_spec = job.spec.to_run_spec()
        if job.key is None:
            # Recovered from a crash that hit before admission finished
            # digesting the spec; the result endpoint needs the key.
            job.key = spec_key(run_spec)
        # The runner's own sweep.run span -- and, via fork, the child's
        # nova.run span -- nest under service.run.
        with trace_span("service.run", job=job.id):
            results, _ = self.runner.run([run_spec], on_failure="return")
        return results[0]

    # ------------------------------------------------------------------
    # Events (long-poll source)
    # ------------------------------------------------------------------

    def _post_event(self, job_id: str, payload: Dict[str, Any]) -> None:
        events = self._events.setdefault(job_id, [])
        record = dict(payload)
        record["seq"] = len(events)
        record["ts"] = time.time()
        events.append(record)
        cond = self._cond
        if cond is not None:
            # Wake long-pollers; safe to schedule from the loop thread.
            async def _notify() -> None:
                async with cond:
                    cond.notify_all()

            try:
                asyncio.get_running_loop().create_task(_notify())
            except RuntimeError:
                pass  # posted before start() / after shutdown

    async def events_since(
        self,
        job_id: str,
        since: int = 0,
        timeout: float = 30.0,
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Long-poll: events after index ``since``, or [] on timeout.

        Returns ``(events, next)`` where ``next`` is the index to pass
        as the following ``since``.  Resolves immediately when the job
        is terminal and fully consumed, so pollers never hang on a
        finished job.
        """
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            job = self.store.get(job_id)
            events = self._events.get(job_id, [])
            fresh = events[since:]
            if fresh:
                return list(fresh), len(events)
            if job.terminal:
                return [], since
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self._cond is None:
                return [], since
            async with self._cond:
                try:
                    await asyncio.wait_for(
                        self._cond.wait(), timeout=remaining
                    )
                except asyncio.TimeoutError:
                    return [], since

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def fairness_snapshot(self) -> Dict[str, int]:
        """Jobs dispatched per client since the scheduler started."""
        return dict(self._fairness)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "draining": self.draining,
            "queue_depth": len(self._queued),
            "max_queue_depth": self.max_queue_depth,
            "running": len(self._running),
            "job_workers": self.job_workers,
            "jobs": self.store.counts(),
            "fairness": self.fairness_snapshot(),
        }
