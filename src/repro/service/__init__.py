"""Async job service: the simulator as a long-running evaluation server.

Every other entry point (``repro run/sweep/report``) is a one-shot
process.  This subsystem turns the same machinery into a multi-client
server, following the paper's own decoupling argument (NOVA's vertex
channel buffers producers from consumers with spill-to-storage
tracking): a **durable job queue** decouples submission from execution.

Three layers:

- :mod:`repro.service.store` -- durable state.  :class:`JobSpec` is a
  JSON-native recipe that lowers onto :class:`~repro.runner.spec.RunSpec`
  (so job keys are the same content-addressed
  :func:`~repro.runner.cache.spec_key` digests sweeps use, and a
  duplicate submission resolves from the :class:`~repro.runner.cache.RunCache`
  with zero compute); :class:`JobStore` is an append-only,
  crash-tolerant JSONL journal with automatic compaction.
- :mod:`repro.service.scheduler` -- an asyncio scheduler: bounded-depth
  admission with structured backpressure
  (:class:`~repro.errors.QueueFullError` -> HTTP 429), priority +
  per-client-fairness + FIFO ordering, and a worker pool that drives the
  blocking :class:`~repro.runner.sweep.SweepRunner` in executor threads
  (fault isolation, timeouts, and retries come from the existing
  :class:`~repro.runner.fault.RetryPolicy` machinery: every job runs
  in its own forked child under a deadline the server enforces), plus
  per-tenant quota / rate-limit admission (the structured 429 family).
- :mod:`repro.service.http` -- a stdlib-only HTTP/1.1 API
  (``/v1/jobs``, long-poll ``/events``, ``/v1/sessions``,
  ``/healthz``, ``/metrics``) plus :class:`ReproService`, the composed
  server with SIGTERM drain-and-persist semantics.
  :mod:`repro.service.client` is the matching thin client behind
  ``repro submit/status/fetch``.

CLI: ``repro serve`` boots the service; ``repro submit`` posts a job
(optionally waiting), ``repro status`` inspects jobs/health, ``repro
fetch`` pulls a completed result as JSON, ``repro top`` watches it
live.

The names below resolve on first access (see :mod:`repro._lazy`), so
a client verb loads the client, not the server.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.service.client": ("ServiceClient",),
    "repro.service.http": ("ReproService", "ServiceHTTP", "run_result_to_dict"),
    "repro.service.scheduler": ("JobScheduler", "TenantQuotas", "TokenBucket"),
    "repro.service.store": (
        "CANCELLED",
        "DONE",
        "FAILED",
        "JOB_STATES",
        "QUEUED",
        "RUNNING",
        "SUBMITTED",
        "TERMINAL_STATES",
        "Job",
        "JobSpec",
        "JobStore",
    ),
})

__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "JOB_STATES",
    "Job",
    "JobScheduler",
    "JobSpec",
    "JobStore",
    "QUEUED",
    "RUNNING",
    "ReproService",
    "SUBMITTED",
    "ServiceClient",
    "ServiceHTTP",
    "TERMINAL_STATES",
    "TenantQuotas",
    "TokenBucket",
    "run_result_to_dict",
]
