"""Exception hierarchy for the ``repro`` package.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch package failures with a single ``except`` clause while
still distinguishing configuration mistakes from malformed inputs.

Each class also declares how the job service sends it: ``http_status``,
the payload's ``error`` code, and ``wire_fields``, the attributes the
JSON payload carries beside ``message``.  The server renders an error
from these and the client rebuilds the class its code names; a
subclass's declaration shadows its base's.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""

    http_status = 400
    error_code = "bad_request"
    wire_fields: tuple = ()


class GraphFormatError(ReproError):
    """A graph file or edge list is malformed or internally inconsistent."""


class ConfigError(ReproError):
    """A system, memory, or network configuration is invalid."""


class PartitionError(ReproError):
    """A spatial or temporal partitioning request cannot be satisfied."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state."""


class WorkloadError(ReproError):
    """A vertex program was configured or invoked incorrectly."""


class ServiceError(ReproError):
    """Base class for job-service failures (see :mod:`repro.service`)."""


class JobSpecError(ServiceError):
    """A submitted job specification is malformed or names unknowns."""

    error_code = "bad_spec"


class UnknownJobError(ServiceError):
    """The referenced job id does not exist in the job store."""

    http_status = 404
    error_code = "unknown_job"
    wire_fields = ("job_id",)

    def __init__(self, job_id: str):
        self.job_id = job_id
        super().__init__(f"unknown job {job_id!r}")


class JobStateError(ServiceError):
    """A job-state transition or operation is illegal in its state.

    ``state`` is the job's current state at the time of the rejected
    operation.
    """

    http_status = 409
    error_code = "job_state"
    wire_fields = ("state",)

    def __init__(self, message: str, state: str = ""):
        self.state = state
        super().__init__(message)


class ThrottledError(ServiceError):
    """Base of the 429 family: the service refused work *for now*.

    Every subclass carries ``retry_after_seconds``, a coarse hint for
    when a retry is worth attempting; the HTTP layer surfaces it as a
    ``Retry-After`` header plus a structured payload field, and
    :meth:`repro.service.client.ServiceClient.submit` can honor it
    automatically (``retries=``).  A client rebuilding a 429 whose
    payload gives no hint reads the class default, 1 s.
    """

    http_status = 429
    error_code = "throttled"
    wire_fields = ("retry_after_seconds",)
    retry_after_seconds = 1.0

    def __init__(self, message: str, retry_after_seconds: float = 1.0):
        self.retry_after_seconds = retry_after_seconds
        super().__init__(message)


class QueueFullError(ThrottledError):
    """Admission control rejected a submission: the queue is at depth.

    A *structured* backpressure signal: ``depth`` is the current queue
    depth, ``limit`` the configured maximum, and
    ``retry_after_seconds`` a coarse hint derived from the scheduler's
    recent job throughput.
    """

    error_code = "queue_full"
    wire_fields = ("depth", "limit", "retry_after_seconds")

    def __init__(self, depth: int, limit: int, retry_after_seconds: float = 1.0):
        self.depth = depth
        self.limit = limit
        super().__init__(
            f"job queue is full ({depth}/{limit}); retry in "
            f"~{retry_after_seconds:g}s",
            retry_after_seconds,
        )


class QuotaExceededError(ThrottledError):
    """A tenant is at its cap of concurrently active (non-terminal) jobs."""

    error_code = "quota_exceeded"
    wire_fields = ("tenant", "active", "limit", "retry_after_seconds")

    def __init__(
        self,
        tenant: str,
        active: int,
        limit: int,
        retry_after_seconds: float = 1.0,
    ):
        self.tenant = tenant
        self.active = active
        self.limit = limit
        super().__init__(
            f"tenant {tenant!r} has {active} active job(s), quota is "
            f"{limit}; retry in ~{retry_after_seconds:g}s",
            retry_after_seconds,
        )


class RateLimitedError(ThrottledError):
    """A tenant's token bucket is empty: submissions arrive too fast."""

    error_code = "rate_limited"
    wire_fields = ("tenant", "rate", "retry_after_seconds")

    def __init__(
        self,
        tenant: str,
        rate: float = 0.0,
        retry_after_seconds: float = 1.0,
    ):
        self.tenant = tenant
        self.rate = rate
        super().__init__(
            f"tenant {tenant!r} exceeded {rate:g} submissions/sec; "
            f"retry in ~{retry_after_seconds:g}s",
            retry_after_seconds,
        )


class ServiceUnavailableError(ServiceError):
    """The service is draining for shutdown and not accepting work."""

    http_status = 503
    error_code = "draining"


class StreamError(ReproError):
    """A streaming-graph operation is invalid (see :mod:`repro.stream`).

    Raised for malformed :class:`~repro.stream.delta.EdgeDeltaBatch`
    payloads and for delta applications that violate the overlay's
    consistency contract (inserting an edge that already exists,
    deleting one that does not, endpoints out of range).
    """

    error_code = "bad_delta"


class UnknownSessionError(ServiceError):
    """The referenced graph session id does not exist."""

    http_status = 404
    error_code = "unknown_session"
    wire_fields = ("session_id",)

    def __init__(self, session_id: str):
        self.session_id = session_id
        super().__init__(f"unknown session {session_id!r}")


class SessionStateError(ServiceError):
    """A session operation is illegal in the session's current state.

    ``state`` describes the conflict (e.g. ``"closed"`` or
    ``"version_mismatch"``).
    """

    http_status = 409
    error_code = "session_state"
    wire_fields = ("state",)

    def __init__(self, message: str, state: str = ""):
        self.state = state
        super().__init__(message)


class SweepFailure(ReproError):
    """One or more runs in a sweep ultimately failed.

    Raised by :meth:`repro.runner.sweep.SweepRunner.run` (with the
    default ``on_failure="raise"``) only *after* every sibling run has
    completed and been flushed to the run cache -- nothing finished is
    lost.  ``failures`` holds the structured
    :class:`~repro.runner.fault.RunFailure` records and ``stats`` the
    sweep's :class:`~repro.runner.sweep.SweepStats`.
    """

    def __init__(self, failures, stats=None):
        self.failures = list(failures)
        self.stats = stats
        noun = "run" if len(self.failures) == 1 else "runs"
        detail = f"; first: {self.failures[0]}" if self.failures else ""
        super().__init__(
            f"{len(self.failures)} sweep {noun} failed{detail}"
        )
