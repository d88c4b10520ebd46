"""Durable job state: specs, the job state machine, and the JSONL store.

A *job* is one simulation the service has promised to run (or to answer
from the run cache).  Its specification (:class:`JobSpec`) is pure
JSON-native data that lowers onto the existing
:class:`~repro.runner.spec.RunSpec` / :class:`~repro.runner.spec.GraphSpec`
pair -- so a submitted job digests into exactly the same
content-addressed cache key a ``repro run`` or ``repro sweep`` of the
same inputs would, and identical submissions dedupe against the
:class:`~repro.runner.cache.RunCache` before any compute happens.

State machine (see DESIGN.md for the full contract)::

    submitted --> queued --> running --> done
         |           |          |    \\-> failed
         |           |          \\------> queued     (crash requeue)
         |           \\-----------------> cancelled
         |\\----------------------------> done       (cache hit)
         \\-----------------------------> cancelled

Durability is a :class:`~repro.journal.Journal`: every :meth:`JobStore.put`
appends the job's full record, fsynced before the call returns, so
recovery is "replay, last record per id wins" and a hard kill loses at
most the one record it tore.  The service's first record for a job is
its admission outcome (see :meth:`JobStore.mint`).  Results are *not*
journaled -- they live in the run cache under the job's spec key,
which the journal records.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import JobSpecError, JobStateError, UnknownJobError
from repro.journal import Journal
from repro.runner.spec import (
    FRONT_END_WORKLOADS,
    GraphSpec,
    RunSpec,
    lower_run,
)

#: Journal format version (header record of every journal file).
SERVICE_SCHEMA = 1

# ----------------------------------------------------------------------
# Job states
# ----------------------------------------------------------------------

SUBMITTED = "submitted"
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

JOB_STATES = (SUBMITTED, QUEUED, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: Legal transitions.  ``submitted -> done`` is the cache-hit shortcut;
#: ``submitted -> failed`` a spec that fails to lower at admission;
#: ``running -> queued`` is the crash-recovery requeue.
TRANSITIONS: Dict[str, tuple] = {
    SUBMITTED: (QUEUED, DONE, FAILED, CANCELLED),
    QUEUED: (RUNNING, CANCELLED),
    RUNNING: (DONE, FAILED, QUEUED, CANCELLED),
    DONE: (),
    FAILED: (),
    CANCELLED: (),
}


# ----------------------------------------------------------------------
# Job specification
# ----------------------------------------------------------------------

_SYSTEMS = ("nova", "polygraph", "ligra")
_PLACEMENTS = ("interleave", "random", "load_balanced", "locality")


#: Fields that must be JSON integers: a float or a bool would lower to
#: a different cache key, or fail only once the job runs.
_INTEGER_FIELDS = ("gpns", "seed", "placement_seed", "max_quanta", "source")


@dataclass(frozen=True)
class JobSpec:
    """JSON-native description of one simulation job.

    Mirrors the knobs of ``repro run`` / one sweep-grid cell.  ``gpns``
    and ``scale`` parameterize the NOVA config (``onchip`` the
    PolyGraph one), and ``scale`` also sizes a ``suite:`` graph;
    ``timeline`` requests an instrumented run whose
    result carries a per-quantum timeline.  ``source=None`` on a
    traversal workload resolves to the graph's highest-out-degree
    vertex at admission (the same default every CLI path uses), so the
    resolved spec -- and its cache key -- is deterministic.
    """

    workload: str
    graph: str
    seed: int = 42
    system: str = "nova"
    gpns: int = 1
    scale: float = 1.0 / 256.0
    source: Optional[int] = None
    placement: str = "random"
    placement_seed: int = 1
    max_quanta: int = 5_000_000
    onchip: Optional[str] = None
    workload_kwargs: Mapping[str, Any] = field(default_factory=dict)
    timeline: bool = False
    #: Traceparent string (``00-<trace>-<span>-01``) binding this job
    #: to a distributed trace.  Carried verbatim through the journal;
    #: NOT part of the lowered RunSpec, so traced and untraced
    #: submissions share one cache key.
    trace: Optional[str] = None
    #: Resident graph session this job queries (see
    #: :mod:`repro.stream.session`).  Session jobs run against the
    #: service's resident overlay instead of building a graph, and
    #: ``graph_digest`` pins the session *version* the job was admitted
    #: at -- the scheduler refuses to run it at any other version, and
    #: the digest keys the run cache so versions never alias.
    session: Optional[str] = None
    graph_digest: Optional[str] = None
    #: Session query mode: ``incremental`` (delta-seeded update from
    #: the resident workload state) or ``cold`` (from-scratch on the
    #: materialized post-delta graph).  Part of the cache key via
    #: ``workload_kwargs``.
    mode: str = "incremental"

    def __post_init__(self) -> None:
        if self.session is not None:
            from repro.stream.session import STREAM_MODES, STREAM_WORKLOADS

            if self.workload not in STREAM_WORKLOADS:
                raise JobSpecError(
                    f"session jobs support workloads "
                    f"{', '.join(STREAM_WORKLOADS)}; got {self.workload!r}"
                )
            if self.mode not in STREAM_MODES:
                raise JobSpecError(
                    f"unknown session query mode {self.mode!r}; choose "
                    f"from {', '.join(STREAM_MODES)}"
                )
            if not self.graph_digest:
                raise JobSpecError(
                    "session jobs need a graph_digest (the session "
                    "version the job is pinned to)"
                )
        if self.workload not in FRONT_END_WORKLOADS:
            raise JobSpecError(
                f"unknown workload {self.workload!r}; choose from "
                f"{', '.join(FRONT_END_WORKLOADS)}"
            )
        if not isinstance(self.graph, str) or not self.graph:
            raise JobSpecError("graph must be a non-empty specifier string")
        if self.system not in _SYSTEMS:
            raise JobSpecError(
                f"unknown system {self.system!r}; choose from "
                f"{', '.join(_SYSTEMS)}"
            )
        if self.placement not in _PLACEMENTS:
            raise JobSpecError(
                f"unknown placement {self.placement!r}; choose from "
                f"{', '.join(_PLACEMENTS)}"
            )
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            # bool is an int subclass; JSON's true/false is not a count.
            if (name != "source" or value is not None) and (
                isinstance(value, bool) or not isinstance(value, int)
            ):
                raise JobSpecError(f"{name} must be an integer, got {value!r}")
        if self.gpns < 1:
            raise JobSpecError(f"gpns must be >= 1, got {self.gpns}")
        if self.scale <= 0:
            raise JobSpecError(f"scale must be positive, got {self.scale}")
        if self.max_quanta < 1:
            raise JobSpecError(
                f"max_quanta must be >= 1, got {self.max_quanta}"
            )
        if self.trace is not None and not isinstance(self.trace, str):
            raise JobSpecError("trace must be a traceparent string or null")

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out = dataclasses.asdict(self)
        out["workload_kwargs"] = dict(self.workload_kwargs)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        if not isinstance(data, Mapping):
            raise JobSpecError(
                f"job spec must be an object, got {type(data).__name__}"
            )
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise JobSpecError(
                f"unknown job-spec field(s): {', '.join(unknown)}"
            )
        if "workload" not in data or "graph" not in data:
            raise JobSpecError("job spec needs 'workload' and 'graph'")
        try:
            return cls(**dict(data))
        except TypeError as exc:
            raise JobSpecError(f"bad job spec: {exc}") from None

    # -- lowering -------------------------------------------------------

    def to_run_spec(self) -> RunSpec:
        """Lower to a :class:`RunSpec` with the source resolved.

        Lowers through :func:`~repro.runner.spec.lower_run`, as ``repro
        run`` and ``repro sweep`` do, so the same inputs share one
        cache key.  A traversal job reads its graph's facts (memoized
        per process; built and published on a cold store) to resolve
        its default source or to check its given one.

        Session jobs lower differently: the graph stays a bare recipe
        (never built -- the overlay is resident at the service), the
        spec carries the session's version digest for cache keying,
        ``system`` is ``"stream"``, and the query mode rides in
        ``workload_kwargs`` so incremental and cold answers key apart.
        """
        if self.session is not None:
            return RunSpec(
                self.workload,
                GraphSpec(self.graph, seed=self.seed),
                system="stream",
                source=self.source,
                max_quanta=self.max_quanta,
                workload_kwargs={
                    **dict(self.workload_kwargs),
                    "mode": self.mode,
                },
                graph_digest=self.graph_digest,
            )
        return lower_run(
            self.workload,
            self.graph,
            seed=self.seed,
            system=self.system,
            gpns=self.gpns,
            scale=self.scale,
            source=self.source,
            placement=self.placement,
            placement_seed=self.placement_seed,
            max_quanta=self.max_quanta,
            onchip=self.onchip,
            workload_kwargs=self.workload_kwargs,
            timeline=self.timeline,
        )


# ----------------------------------------------------------------------
# Job record
# ----------------------------------------------------------------------


def new_job_id() -> str:
    return "j-" + uuid.uuid4().hex[:12]


@dataclass
class Job:
    """One job's durable record (everything the journal persists)."""

    id: str
    spec: JobSpec
    client: str = "anonymous"
    priority: int = 0
    state: str = SUBMITTED
    seq: int = 0
    created_at: float = 0.0
    updated_at: float = 0.0
    #: Content-addressed run-cache key of the lowered spec (filled at
    #: admission; the result endpoint reads the cache under this key).
    key: Optional[str] = None
    #: True when the job was answered from the cache with no compute.
    cached: bool = False
    attempts: int = 0
    error_kind: Optional[str] = None
    error_type: Optional[str] = None
    error_message: Optional[str] = None

    def transition(self, new_state: str, now: Optional[float] = None) -> None:
        """Move to ``new_state``, enforcing the state machine."""
        if new_state not in JOB_STATES:
            raise JobStateError(f"unknown job state {new_state!r}")
        if new_state not in TRANSITIONS[self.state]:
            raise JobStateError(
                f"job {self.id} cannot go {self.state} -> {new_state}",
                state=self.state,
            )
        self.state = new_state
        self.updated_at = time.time() if now is None else now

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        out = dataclasses.asdict(self)
        out["spec"] = self.spec.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Job":
        """A job from its journal record (replay)."""
        payload = dict(data)
        payload["spec"] = JobSpec.from_dict(
            _integral_as_int(payload.get("spec", {}))
        )
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - names
        for name in unknown:  # fields newer or older code wrote
            payload.pop(name)
        return cls(**payload)


def _integral_as_int(spec: Any) -> Any:
    """A journaled spec with integral floats and bools in its integer
    fields made ints: older code journaled jobs admitted with ``gpns:
    2.0``, ``seed: 4.0`` or ``max_quanta: 10.0``, and replay keeps them
    (a non-integral value could only fail its run and is refused)."""
    if not isinstance(spec, Mapping):
        return spec
    out = dict(spec)
    for name in _INTEGER_FIELDS:
        value = out.get(name)
        if isinstance(value, bool) or (
            isinstance(value, float) and value.is_integer()
        ):
            out[name] = int(value)
    return out


# ----------------------------------------------------------------------
# Durable store
# ----------------------------------------------------------------------


class JobStore:
    """Job records in a :class:`~repro.journal.Journal`, last record wins.

    Every :meth:`put` appends the job's full record; the in-memory view
    is "last record per id wins", and compaction keeps one record per
    job, so steady-state disk use is proportional to the number of
    jobs, not state changes.  Thread-safe: the scheduler writes from
    executor threads.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.path = os.path.join(root, "jobs.jsonl")
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._seq = 0
        self._journal = Journal(
            self.path,
            header={"op": "header", "schema": SERVICE_SCHEMA},
            live_count=lambda: len(self._jobs),
            live_records=lambda: (
                {"op": "job", "job": job.to_dict()}
                for job in sorted(self._jobs.values(), key=lambda j: j.seq)
            ),
        )
        for record in self._journal.replay():
            if record.get("op") != "job":
                continue  # header / future record kinds
            try:
                job = Job.from_dict(record["job"])
            except Exception:
                continue  # one bad record must not poison recovery
            self._jobs[job.id] = job
            self._seq = max(self._seq, job.seq)

    # -- mutation -------------------------------------------------------

    def create(
        self,
        spec: JobSpec,
        client: str = "anonymous",
        priority: int = 0,
    ) -> Job:
        """Mint and persist a new job in the ``submitted`` state."""
        job = self.mint(spec, client=client, priority=priority)
        self.put(job)
        return job

    def mint(
        self,
        spec: JobSpec,
        client: str = "anonymous",
        priority: int = 0,
    ) -> Job:
        """Mint a new ``submitted`` job, live in memory but not journaled.

        The scheduler journals a job once admission settles it (``done``
        from the cache, ``queued`` or ``failed``): the cache-hit path
        pays one fsync, and a submission that was never acknowledged
        leaves nothing to recover.
        """
        now = time.time()
        with self._lock:
            self._seq += 1
            job = Job(
                id=new_job_id(),
                spec=spec,
                client=client,
                priority=int(priority),
                state=SUBMITTED,
                seq=self._seq,
                created_at=now,
                updated_at=now,
            )
            self._jobs[job.id] = job
        return job

    def put(self, job: Job) -> None:
        """Persist ``job``'s current record (after any state change)."""
        with self._lock:
            self._jobs[job.id] = job
            self._journal.append({"op": "job", "job": job.to_dict()})

    def compact(self) -> None:
        with self._lock:
            self._journal.compact()

    # -- queries --------------------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(job_id)
        return job

    def jobs(self) -> List[Job]:
        """All jobs, oldest first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.seq)

    def counts(self) -> Dict[str, int]:
        out = {state: 0 for state in JOB_STATES}
        for job in self.jobs():
            out[job.state] += 1
        return out

    # -- recovery -------------------------------------------------------

    def recover(self) -> List[Job]:
        """Requeue interrupted work; return jobs needing (re)scheduling.

        Jobs found ``running`` were interrupted by a crash or an unclean
        shutdown: they transition back to ``queued`` (their worker is
        gone; the run cache may still absorb any half-finished compute
        as a future hit).  Returns every ``queued`` job plus any
        ``submitted`` stragglers, oldest first, for the scheduler to
        re-enqueue.
        """
        resumable: List[Job] = []
        for job in self.jobs():
            if job.state == RUNNING:
                job.transition(QUEUED)
                self.put(job)
                resumable.append(job)
            elif job.state == QUEUED:
                resumable.append(job)
            elif job.state == SUBMITTED:
                # Crashed between admission and enqueue: treat as queued.
                job.transition(QUEUED)
                self.put(job)
                resumable.append(job)
        resumable.sort(key=lambda j: j.seq)
        return resumable
