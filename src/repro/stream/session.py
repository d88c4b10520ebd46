"""Resident graph sessions: journaled delta streams over base graphs.

A *session* holds one base graph at the service and accepts a stream of
:class:`~repro.stream.delta.EdgeDeltaBatch` updates against it.  The
durable half (:class:`SessionStore`) is a :class:`~repro.journal.Journal`
like the job store's -- session records are last-write-wins, delta
records are append-only and replayable, one record per applied batch.
The resident half (:class:`SessionManager`) keeps a live
:class:`~repro.stream.overlay.DeltaOverlayGraph` plus per-workload
incremental states per session, lazily rebuilt after a restart by
replaying the journal.

Version discipline: every applied batch advances the session's version
digest (``v_{n+1} = sha256(v_n : batch_digest)``); queries carry the
digest they were admitted at, and :meth:`SessionManager.execute_job`
refuses a stale digest with
:class:`~repro.errors.SessionStateError` -- a cached result can never
alias a different graph version.

Pruning the graph store needs no pins: a session's mapped base
outlives the unlink of its artifact, a compaction re-bases in memory
and publishes nothing, and a restart rebuilds the base from its
deterministic recipe and replays the journal.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.metrics import RunResult
from repro.errors import (
    SessionStateError,
    StreamError,
    UnknownSessionError,
)
from repro.graph.store import spec_digest
from repro.journal import Journal
from repro.obs.counters import FAULT_COUNTERS
from repro.obs.tracing import trace_span
from repro.runner.spec import GraphSpec, resolve_source
from repro.stream.delta import EdgeDeltaBatch, net_delta
from repro.stream.incremental import (
    BfsState,
    cold_answer,
    incremental_update,
    seed_state,
)
from repro.stream.overlay import DeltaOverlayGraph

#: Journal format version (header record of the session journal).
STREAM_SCHEMA = 1

#: Workloads a session can answer (topology-only, unweighted).
STREAM_WORKLOADS = ("bfs", "cc", "pr")

#: Query execution modes.
STREAM_MODES = ("incremental", "cold")

OPEN = "open"


def new_session_id() -> str:
    return "s-" + uuid.uuid4().hex[:12]


@dataclass
class SessionRecord:
    """One session's durable record (everything the journal persists)."""

    id: str
    graph: str
    seed: int = 42
    state: str = OPEN
    client: str = "anonymous"
    created_at: float = 0.0
    updated_at: float = 0.0
    #: Store artifact digest of the base graph (version ``v_0``).
    base_digest: str = ""
    #: Rolling version digest after the last applied batch.
    version_digest: str = ""
    #: Number of delta batches applied.
    delta_seq: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SessionRecord":
        payload = dict(data)
        names = {f.name for f in dataclasses.fields(cls)}
        for name in set(payload) - names:  # forward compatibility
            payload.pop(name)
        return cls(**payload)


class SessionStore:
    """Sessions and their delta batches in a :class:`~repro.journal.Journal`.

    Three record kinds share the journal: ``session`` records are
    last-write-wins per id (like job records); ``delta`` records are the
    session's replayable history, each carrying the ``version`` digest
    and ``seq`` it advanced the session to; a ``remove`` tombstone drops
    a session and its history.  Compaction keeps every live session's
    record and deltas.  Thread-safe: the HTTP layer appends from
    executor threads.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.path = os.path.join(root, "sessions.jsonl")
        self._lock = threading.Lock()
        self._sessions: Dict[str, SessionRecord] = {}
        #: session id -> its delta records, in apply order.
        self._deltas: Dict[str, List[Dict[str, Any]]] = {}
        self._journal = Journal(
            self.path,
            header={"op": "header", "schema": STREAM_SCHEMA},
            live_count=lambda: len(self._sessions)
            + sum(map(len, self._deltas.values())),
            live_records=self._live_records,
        )
        for record in self._journal.replay():
            op = record.get("op")
            try:
                if op == "session":
                    session = SessionRecord.from_dict(record["session"])
                    self._sessions[session.id] = session
                elif op == "delta":
                    self._add_delta(record)
                elif op == "remove":
                    self._sessions.pop(record["session"], None)
                    self._deltas.pop(record["session"], None)
            except Exception:
                continue  # one bad record must not poison recovery

    def _add_delta(self, record: Dict[str, Any]) -> None:
        session_id = record["session"]
        record = dict(record, batch=dict(record["batch"]))
        session = self._sessions.get(session_id)
        # Journals written before deltas carried their version advance
        # the session through the session record that followed them.
        if session is not None and "version" in record:
            seq = int(record["seq"])
            session.version_digest = record["version"]
            session.delta_seq = seq
        self._deltas.setdefault(session_id, []).append(record)

    def _live_records(self):
        for session in sorted(
            self._sessions.values(), key=lambda s: s.created_at
        ):
            yield {"op": "session", "session": session.to_dict()}
            yield from self._deltas.get(session.id, [])

    def compact(self) -> None:
        with self._lock:
            self._journal.compact()

    # -- mutation -------------------------------------------------------

    def create(
        self,
        graph: str,
        seed: int = 42,
        client: str = "anonymous",
        base_digest: str = "",
    ) -> SessionRecord:
        """Mint and persist a new open session record."""
        now = time.time()
        session = SessionRecord(
            id=new_session_id(),
            graph=graph,
            seed=int(seed),
            state=OPEN,
            client=client,
            created_at=now,
            updated_at=now,
            base_digest=base_digest,
            version_digest=base_digest,
            delta_seq=0,
        )
        with self._lock:
            self._sessions[session.id] = session
            self._journal.append(
                {"op": "session", "session": session.to_dict()}
            )
        return session

    def put(self, session: SessionRecord) -> None:
        session.updated_at = time.time()
        with self._lock:
            self._sessions[session.id] = session
            self._journal.append(
                {"op": "session", "session": session.to_dict()}
            )

    def append_delta(
        self,
        session_id: str,
        seq: int,
        batch: Dict[str, Any],
        version: str,
    ) -> None:
        """Journal one applied batch and the version it advanced to.

        One record per delta: the session's ``version_digest`` and
        ``delta_seq`` move with it, in memory and on replay.
        """
        record = {
            "op": "delta",
            "session": session_id,
            "seq": int(seq),
            "batch": dict(batch),
            "version": version,
        }
        with self._lock:
            if session_id not in self._sessions:
                raise UnknownSessionError(session_id)
            self._add_delta(record)
            self._journal.append(record)

    def remove(self, session_id: str) -> SessionRecord:
        """Drop a session and its delta history (journaled tombstone)."""
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is None:
                raise UnknownSessionError(session_id)
            self._deltas.pop(session_id, None)
            self._journal.append({"op": "remove", "session": session_id})
        return session

    # -- queries --------------------------------------------------------

    def get(self, session_id: str) -> SessionRecord:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSessionError(session_id)
        return session

    def sessions(self) -> List[SessionRecord]:
        """All sessions, oldest first."""
        with self._lock:
            return sorted(
                self._sessions.values(), key=lambda s: s.created_at
            )

    def deltas(self, session_id: str) -> List[Dict[str, Any]]:
        with self._lock:
            if session_id not in self._sessions:
                raise UnknownSessionError(session_id)
            records = self._deltas.get(session_id, [])
            return [dict(record["batch"]) for record in records]


class SessionManager:
    """Resident overlays and incremental workload states per session.

    Thread-safe behind one lock: the HTTP layer and the scheduler's
    executor threads both call in.  Overlays are built lazily -- on the
    first touch after a restart the journaled batches replay onto a
    freshly resolved base graph, and the replayed version digest must
    match the journal's record.
    """

    def __init__(self, store: SessionStore) -> None:
        self.store = store
        self._lock = threading.Lock()
        self._overlays: Dict[str, DeltaOverlayGraph] = {}
        #: (session, workload, source) -> incremental state
        self._states: Dict[Tuple[str, str, Optional[int]], Any] = {}

    # -- lifecycle ------------------------------------------------------

    def create(
        self, graph: str, seed: int = 42, client: str = "anonymous"
    ) -> SessionRecord:
        """Resolve a base graph and open a session over it."""
        gspec = GraphSpec(graph, seed=int(seed))
        with trace_span("stream.session", graph=graph, seed=int(seed)):
            base = gspec.build()  # store-backed build (mmap on rebuild)
        if base.has_weights:
            raise StreamError(
                "streaming sessions require an unweighted base graph"
            )
        base_digest = spec_digest(gspec)
        session = self.store.create(
            graph, seed=int(seed), client=client, base_digest=base_digest
        )
        with self._lock:
            self._overlays[session.id] = DeltaOverlayGraph(
                base, base_digest=base_digest
            )
        FAULT_COUNTERS.increment("stream.sessions_opened")
        return session

    def close(self, session_id: str) -> SessionRecord:
        """Tear down a session: journal tombstone, drop state."""
        session = self.store.remove(session_id)
        session.state = "closed"
        with self._lock:
            self._overlays.pop(session_id, None)
            for key in [k for k in self._states if k[0] == session_id]:
                self._states.pop(key, None)
        return session

    # -- overlay access -------------------------------------------------

    def overlay(self, session_id: str) -> DeltaOverlayGraph:
        """The session's resident overlay (replaying the journal if cold)."""
        session = self.store.get(session_id)
        with self._lock:
            overlay = self._overlays.get(session_id)
            if overlay is not None:
                return overlay
            overlay = self._rebuild(session)
            self._overlays[session_id] = overlay
            return overlay

    def _rebuild(self, session: SessionRecord) -> DeltaOverlayGraph:
        """Replay the journaled batches onto a freshly built base."""
        gspec = GraphSpec(session.graph, seed=session.seed)
        base = gspec.build()
        overlay = DeltaOverlayGraph(base, base_digest=session.base_digest)
        for payload in self.store.deltas(session.id):
            overlay.apply(EdgeDeltaBatch.from_dict(payload))
        if overlay.version_digest != session.version_digest:
            raise SessionStateError(
                f"session {session.id} journal replay diverged "
                f"(journal at {overlay.version_digest[:12]}, record at "
                f"{session.version_digest[:12]})",
                state="diverged",
            )
        return overlay

    # -- mutation -------------------------------------------------------

    def apply(
        self, session_id: str, batch: EdgeDeltaBatch
    ) -> SessionRecord:
        """Apply one delta batch: overlay first, then the journal."""
        session = self.store.get(session_id)
        overlay = self.overlay(session_id)
        with trace_span(
            "stream.delta",
            session=session_id,
            inserts=batch.num_inserts,
            deletes=batch.num_deletes,
        ), FAULT_COUNTERS.time_histogram("stream.delta_apply_seconds"):
            # Journal under the lock so the journal's delta order is
            # the overlay's apply order.
            with self._lock:
                overlay.apply(batch)
                self.store.append_delta(
                    session_id,
                    overlay.delta_seq,
                    batch.to_dict(),
                    overlay.version_digest,
                )
        FAULT_COUNTERS.increment("stream.deltas_applied")
        FAULT_COUNTERS.increment(
            "stream.edges_inserted", batch.num_inserts
        )
        FAULT_COUNTERS.increment("stream.edges_deleted", batch.num_deletes)
        return session

    def compact(self, session_id: str) -> SessionRecord:
        """Merge the overlay's deltas into its base, in memory."""
        session = self.store.get(session_id)
        overlay = self.overlay(session_id)
        with trace_span(
            "stream.compact",
            session=session_id,
            dirty_edges=overlay.dirty_edges,
        ), FAULT_COUNTERS.time_histogram("stream.compact_seconds"):
            with self._lock:
                overlay.compact()
        FAULT_COUNTERS.increment("stream.compactions")
        self.store.put(session)
        return session

    # -- queries --------------------------------------------------------

    def resolve_job_source(
        self, session_id: str, workload: str, source: Optional[int]
    ) -> Optional[int]:
        """Deterministic default source from the session's *original* base.

        Resolved against the graph the session was opened on -- not the
        overlay, and not the merged graph a compaction re-bases onto --
        so the default is stable across versions, compactions and
        restarts of one session: resubmitting the same query at a new
        version changes only the version digest in the cache key, never
        the source.  The source comes from the base recipe's facts, so
        no array is mapped or scanned.
        """
        session = self.store.get(session_id)
        return resolve_source(
            GraphSpec(session.graph, seed=session.seed), workload, source
        )

    def execute_job(self, spec: Any) -> RunResult:
        """Run one session query described by a (duck-typed) job spec.

        ``spec`` carries ``session``, ``graph_digest``, ``workload``,
        ``source``, and ``workload_kwargs['mode']`` -- this module never
        imports :mod:`repro.service` (the service imports us).  The
        spec's pinned version digest must match the overlay's head:
        deltas applied between admission and execution make the result
        ambiguous, so the query is refused instead.
        """
        session_id = spec.session
        workload = spec.workload
        mode = getattr(spec, "mode", None) or dict(
            spec.workload_kwargs or {}
        ).get("mode", "incremental")
        overlay = self.overlay(session_id)
        source = (
            self.resolve_job_source(session_id, workload, spec.source)
            if workload == "bfs"
            else None
        )
        with trace_span(
            "stream.query",
            session=session_id,
            workload=workload,
            mode=mode,
        ), FAULT_COUNTERS.time_histogram("stream.query_seconds"):
            with self._lock:
                if (
                    spec.graph_digest
                    and spec.graph_digest != overlay.version_digest
                ):
                    raise SessionStateError(
                        f"session {session_id} is at version "
                        f"{overlay.version_digest[:12]}, job was admitted "
                        f"at {str(spec.graph_digest)[:12]}",
                        state="version_mismatch",
                    )
                start = time.perf_counter()
                if mode == "cold":
                    answer = cold_answer(
                        workload, overlay.materialize(), source=source
                    )
                    stats: Dict[str, int] = {}
                    FAULT_COUNTERS.increment("stream.queries_cold")
                else:
                    answer, stats = self._incremental(
                        session_id, workload, source, overlay
                    )
                    FAULT_COUNTERS.increment("stream.queries_incremental")
                    if stats.get("fallback"):
                        FAULT_COUNTERS.increment("stream.fallbacks")
                elapsed = time.perf_counter() - start
        return RunResult(
            workload=workload,
            system="stream",
            num_vertices=overlay.num_vertices,
            num_edges=overlay.num_edges,
            result=np.asarray(answer),
            elapsed_seconds=elapsed,
            quanta=int(stats.get("rounds", 1)),
            edges_traversed=int(
                stats.get("relaxations", stats.get("pushes", 0))
            ),
            messages_sent=0,
            messages_processed=0,
            useful_messages=0,
            redundant_messages=0,
            coalesced_messages=0,
            activations=int(stats.get("pushes", stats.get("relaxations", 0))),
            breakdown={
                "delta_seq": float(overlay.delta_seq),
                "fallback": float(stats.get("fallback", 0)),
            },
        )

    def _incremental(
        self,
        session_id: str,
        workload: str,
        source: Optional[int],
        overlay: DeltaOverlayGraph,
    ) -> Tuple[np.ndarray, Dict[str, int]]:
        """Answer from the cached state, catching it up to the head."""
        key = (session_id, workload, source)
        state = self._states.get(key)
        if state is None:
            state, answer = seed_state(workload, overlay, source=source)
            self._states[key] = state
            return answer, {"seeded": 1}
        if workload == "bfs" and not isinstance(state, BfsState):
            raise SessionStateError("bfs state type mismatch")
        inserts, deletes = net_delta(overlay.batches[state.seq :])
        return incremental_update(workload, overlay, state, inserts, deletes)
