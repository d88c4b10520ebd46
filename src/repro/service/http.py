"""Stdlib-only HTTP front end for the job service.

A hand-rolled HTTP/1.1 server on ``asyncio.start_server`` -- no
third-party web framework -- exposing the evaluation service:

- ``POST   /v1/jobs``            submit ``{"spec": {...}, "client": ..,
  "priority": ..}``; 201 on enqueue, 200 when answered from the run
  cache, 429 + ``Retry-After`` under backpressure / per-tenant quota /
  rate limit (structured ``error`` codes ``queue_full`` /
  ``quota_exceeded`` / ``rate_limited``), 503 while draining
- ``GET    /v1/jobs``            list jobs (most recent last)
- ``GET    /v1/jobs/{id}``       one job's record
- ``GET    /v1/jobs/{id}/result``  the completed run, JSON-rendered
  from the run cache under the job's content-addressed key
- ``GET    /v1/jobs/{id}/events``  long-poll (``?since=N&timeout=S``)
  over the job's state changes
- ``DELETE /v1/jobs/{id}``       cancel a waiting job
- ``GET    /healthz``            liveness + drain status, uptime, and
  queue depth (the ``repro top`` poll target)
- ``GET    /metrics``            the process-wide metrics registry
  (:data:`~repro.obs.counters.FAULT_COUNTERS`): counters with
  ``service.*``, ``graph_store.*``, and ``stream.*`` families broken
  out, typed gauges and histogram snapshots, and scheduler
  queue/fairness state.  ``?format=prom`` (or ``Accept: text/plain``)
  switches to the Prometheus text exposition rendered by
  :mod:`repro.obs.prom`.

Requests carrying an ``X-Repro-Trace-Id`` traceparent header join
that distributed trace: the context is activated around routing, and
a submitted spec without its own ``trace`` field inherits it, so the
server's spans (and its forked run's) stitch under the caller's span.

:class:`ReproService` composes store + scheduler + HTTP listener and
owns the lifecycle: SIGTERM/SIGINT trigger a drain (running jobs
finish, queued jobs persist for the next boot) before the loop exits.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import signal
import time
from typing import Any, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro import __version__
from repro.core.metrics import RunResult
from repro.errors import (
    JobSpecError,
    JobStateError,
    QueueFullError,
    QuotaExceededError,
    RateLimitedError,
    ReproError,
    ServiceUnavailableError,
    SessionStateError,
    StreamError,
    ThrottledError,
    UnknownJobError,
    UnknownSessionError,
)
from repro.obs import prom
from repro.obs.counters import FAULT_COUNTERS
from repro.obs.trace_context import activate, current, extract_headers
from repro.obs.tracing import trace_event
from repro.runner.cache import RunCache
from repro.runner.sweep import SweepRunner
from repro.service.scheduler import JobScheduler, TenantQuotas
from repro.service.store import DONE, JobSpec, JobStore

#: Largest accepted request body (a job spec is a few hundred bytes).
MAX_BODY_BYTES = 1 << 20

_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars / mappings into JSON-native values."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except Exception:
            return value
    return value


def run_result_to_dict(result: RunResult) -> Dict[str, Any]:
    """JSON-render one :class:`RunResult` (the result-endpoint payload).

    The raw per-vertex ``result`` array is omitted -- it can be
    millions of entries; clients that need values recompute locally or
    read the shared cache.  ``result_sha256`` fingerprints the array so
    two jobs' answers can be compared for exact equality (the streaming
    smoke checks incremental == cold this way) without shipping it.
    Everything metric-shaped is included, timeline included when the
    run was instrumented.
    """
    import hashlib

    try:
        result_sha256 = hashlib.sha256(
            result.result.tobytes()
        ).hexdigest()
    except Exception:
        result_sha256 = None
    return _jsonable(
        {
            "result_sha256": result_sha256,
            "workload": result.workload,
            "system": result.system,
            "num_vertices": result.num_vertices,
            "num_edges": result.num_edges,
            "elapsed_seconds": result.elapsed_seconds,
            "quanta": result.quanta,
            "edges_traversed": result.edges_traversed,
            "messages_sent": result.messages_sent,
            "messages_processed": result.messages_processed,
            "useful_messages": result.useful_messages,
            "redundant_messages": result.redundant_messages,
            "coalesced_messages": result.coalesced_messages,
            "activations": result.activations,
            "breakdown": dict(result.breakdown),
            "traffic": dict(result.traffic),
            "utilization": dict(result.utilization),
            "gteps": result.gteps,
            "work_efficiency": result.work_efficiency,
            "coalescing_rate": result.coalescing_rate,
            "summary": result.describe(),
            "timeline": result.timeline,
        }
    )


class ServiceHTTP:
    """Route parsed requests into the scheduler/store/cache."""

    def __init__(
        self,
        scheduler: JobScheduler,
        store: JobStore,
        cache: Optional[RunCache],
        sessions=None,
    ) -> None:
        self.scheduler = scheduler
        self.store = store
        self.cache = cache
        #: Optional :class:`~repro.stream.session.SessionManager`
        #: backing the ``/v1/sessions`` routes.
        self.sessions = sessions
        #: Monotonic birth stamp backing ``/healthz``'s
        #: ``uptime_seconds``; :meth:`ReproService.start` re-stamps it
        #: when the listener actually binds.
        self.started_monotonic = time.monotonic()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload, headers = await self._dispatch_safe(reader)
            await self._respond(writer, status, payload, headers)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _dispatch_safe(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Union[Dict[str, Any], str], Dict[str, str]]:
        try:
            method, path, query, body, req_headers = (
                await self._read_request(reader)
            )
        except _HttpError as exc:
            return exc.status, {"error": exc.code, "message": str(exc)}, {}
        try:
            # Join the caller's distributed trace (if any) for the span
            # of this request: routing, submission, and any trace_event
            # fired inline all stamp its ids.
            with activate(extract_headers(req_headers)):
                status, payload = await self._route(
                    method, path, query, body, req_headers
                )
            return status, payload, {}
        except _HttpError as exc:
            return exc.status, {"error": exc.code, "message": str(exc)}, {}
        except ThrottledError as exc:
            FAULT_COUNTERS.increment("service.http.429")
            payload = {
                "message": str(exc),
                "retry_after_seconds": exc.retry_after_seconds,
            }
            if isinstance(exc, QueueFullError):
                payload.update(
                    error="queue_full", depth=exc.depth, limit=exc.limit
                )
            elif isinstance(exc, QuotaExceededError):
                payload.update(
                    error="quota_exceeded",
                    tenant=exc.tenant,
                    active=exc.active,
                    limit=exc.limit,
                )
            elif isinstance(exc, RateLimitedError):
                payload.update(
                    error="rate_limited", tenant=exc.tenant, rate=exc.rate
                )
            else:
                payload["error"] = "throttled"
            headers = {"Retry-After": f"{exc.retry_after_seconds:.0f}"}
            return 429, payload, headers
        except UnknownJobError as exc:
            return 404, {"error": "unknown_job", "message": str(exc),
                         "job_id": exc.job_id}, {}
        except UnknownSessionError as exc:
            return 404, {"error": "unknown_session", "message": str(exc),
                         "session_id": exc.session_id}, {}
        except JobStateError as exc:
            return 409, {"error": "job_state", "message": str(exc),
                         "state": exc.state}, {}
        except SessionStateError as exc:
            return 409, {"error": "session_state", "message": str(exc),
                         "state": exc.state}, {}
        except StreamError as exc:
            return 400, {"error": "bad_delta", "message": str(exc)}, {}
        except ServiceUnavailableError as exc:
            return 503, {"error": "draining", "message": str(exc)}, {}
        except JobSpecError as exc:
            return 400, {"error": "bad_spec", "message": str(exc)}, {}
        except ReproError as exc:
            return 400, {"error": "bad_request", "message": str(exc)}, {}
        except Exception as exc:  # noqa: BLE001 -- last-resort 500
            FAULT_COUNTERS.increment("service.http.500")
            return 500, {"error": "internal",
                         "message": f"{type(exc).__name__}: {exc}"}, {}

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, list], Optional[Dict[str, Any]],
               Dict[str, str]]:
        request_line = await reader.readline()
        if not request_line:
            raise _HttpError(400, "empty_request", "empty request")
        try:
            method, target, _ = request_line.decode("latin-1").split(" ", 2)
        except ValueError:
            raise _HttpError(400, "bad_request_line", "malformed request line")
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, "body_too_large",
                             f"request body exceeds {MAX_BODY_BYTES} bytes")
        body: Optional[Dict[str, Any]] = None
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise _HttpError(400, "bad_json", f"body is not JSON: {exc}")
        parts = urlsplit(target)
        return (
            method.upper(), parts.path, parse_qs(parts.query), body, headers
        )

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Union[Dict[str, Any], str],
        extra_headers: Dict[str, str],
    ) -> None:
        if isinstance(payload, str):
            # Pre-rendered text body (the Prometheus exposition).
            body = payload.encode("utf-8")
            content_type = prom.CONTENT_TYPE
        else:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        headers = {
            "Content-Type": content_type,
            "Content-Length": str(len(body)),
            "Connection": "close",
            "Server": f"repro-service/{__version__}",
        }
        headers.update(extra_headers)
        head = f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        head += "".join(f"{k}: {v}\r\n" for k, v in headers.items())
        writer.write(head.encode("latin-1") + b"\r\n" + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _route(
        self,
        method: str,
        path: str,
        query: Dict[str, list],
        body: Optional[Dict[str, Any]],
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Union[Dict[str, Any], str]]:
        if path == "/healthz" and method == "GET":
            return self._healthz()
        if path == "/metrics" and method == "GET":
            return self._metrics(query, headers or {})
        if path == "/v1/jobs":
            if method == "POST":
                return await self._submit(body)
            if method == "GET":
                return self._list_jobs()
            raise _HttpError(405, "method", f"{method} not allowed here")
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            job_id, _, tail = rest.partition("/")
            if not job_id:
                raise _HttpError(404, "not_found", f"no route {path!r}")
            if not tail:
                if method == "GET":
                    return self._get_job(job_id)
                if method == "DELETE":
                    return await self._cancel(job_id)
                raise _HttpError(405, "method", f"{method} not allowed here")
            if tail == "result" and method == "GET":
                return self._result(job_id)
            if tail == "events" and method == "GET":
                return await self._events(job_id, query)
        if path == "/v1/sessions":
            if method == "POST":
                return await self._create_session(body)
            if method == "GET":
                return self._list_sessions()
            raise _HttpError(405, "method", f"{method} not allowed here")
        if path.startswith("/v1/sessions/"):
            rest = path[len("/v1/sessions/"):]
            session_id, _, tail = rest.partition("/")
            if not session_id:
                raise _HttpError(404, "not_found", f"no route {path!r}")
            if not tail:
                if method == "GET":
                    return self._get_session(session_id)
                if method == "DELETE":
                    return await self._close_session(session_id)
                raise _HttpError(405, "method", f"{method} not allowed here")
            if tail == "deltas" and method == "POST":
                return await self._apply_delta(session_id, body)
            if tail == "compact" and method == "POST":
                return await self._compact_session(session_id)
            if tail == "jobs" and method == "POST":
                return await self._submit_session_job(session_id, body)
        raise _HttpError(404, "not_found", f"no route {method} {path!r}")

    # -- endpoints ------------------------------------------------------

    def _healthz(self) -> Tuple[int, Dict[str, Any]]:
        snap = self.scheduler.snapshot()
        status = "draining" if snap["draining"] else "ok"
        return 200, {
            "status": status,
            "version": __version__,
            "uptime_seconds": round(
                max(0.0, time.monotonic() - self.started_monotonic), 3
            ),
            **snap,
        }

    def _metrics(
        self, query: Dict[str, list], headers: Dict[str, str]
    ) -> Tuple[int, Union[Dict[str, Any], str]]:
        # Scrape-time gauge refresh: queue/running gauges are published
        # on mutation, but an idle scheduler should still scrape fresh.
        self.scheduler._publish_gauges()
        counters = FAULT_COUNTERS.snapshot()
        gauges = FAULT_COUNTERS.gauges()
        histograms = FAULT_COUNTERS.histograms()

        fmt = (query.get("format") or [""])[-1].lower()
        accept = headers.get("accept", "")
        if fmt == "prom" or (
            not fmt and accept.startswith("text/plain")
        ):
            return 200, prom.render_prometheus(counters, gauges, histograms)

        def family(prefix: str) -> Dict[str, int]:
            return {
                name: value
                for name, value in counters.items()
                if name.startswith(prefix)
            }

        return 200, {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "service": family("service."),
            "graph_store": family("graph_store."),
            "stream": family("stream."),
            "scheduler": self.scheduler.snapshot(),
        }

    async def _submit(
        self, body: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any]]:
        if not isinstance(body, dict):
            raise JobSpecError("POST /v1/jobs needs a JSON object body")
        spec = JobSpec.from_dict(body.get("spec", {}))
        if spec.trace is None:
            # The spec's own trace field wins; otherwise inherit the
            # request header's context (activated by _dispatch_safe) so
            # the scheduler's spans stitch under the caller's span.
            ctx = current()
            if ctx is not None:
                spec = dataclasses.replace(spec, trace=ctx.traceparent())
        client = str(body.get("client", "anonymous"))
        try:
            priority = int(body.get("priority", 0))
        except (TypeError, ValueError):
            raise JobSpecError("priority must be an integer") from None
        job = await self.scheduler.submit(spec, client=client,
                                          priority=priority)
        status = 200 if job.cached else 201
        return status, {"job": job.to_dict()}

    def _list_jobs(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {"jobs": [job.to_dict() for job in self.store.jobs()]}

    def _get_job(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        return 200, {"job": self.store.get(job_id).to_dict()}

    async def _cancel(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        job = await self.scheduler.cancel(job_id)
        return 200, {"job": job.to_dict()}

    def _result(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        job = self.store.get(job_id)
        if job.state != DONE:
            raise JobStateError(
                f"job {job_id} has no result (state: {job.state})",
                state=job.state,
            )
        if self.cache is None or job.key is None:
            raise JobStateError(
                f"job {job_id} completed but the service runs cacheless",
                state=job.state,
            )
        result = self.cache.load(job.key)
        if result is None:
            # Evicted between completion and fetch: the contract is
            # content-addressed storage, so report the gap honestly.
            raise UnknownJobError(job_id)
        return 200, {
            "job": job.to_dict(),
            "result": run_result_to_dict(result),
        }

    # -- streaming sessions --------------------------------------------

    def _need_sessions(self):
        if self.sessions is None:
            raise _HttpError(
                404, "no_sessions",
                "this service has no streaming session manager",
            )
        return self.sessions

    async def _create_session(
        self, body: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any]]:
        sessions = self._need_sessions()
        if not isinstance(body, dict) or "graph" not in body:
            raise JobSpecError(
                "POST /v1/sessions needs a JSON body with 'graph'"
            )
        graph = str(body["graph"])
        try:
            seed = int(body.get("seed", 42))
        except (TypeError, ValueError):
            raise JobSpecError("seed must be an integer") from None
        client = str(body.get("client", "anonymous"))
        loop = asyncio.get_running_loop()
        ctx = current()

        def build():
            # Executor thread: re-join the request's trace explicitly.
            with activate(ctx):
                return sessions.create(graph, seed=seed, client=client)

        session = await loop.run_in_executor(None, build)
        return 201, {"session": session.to_dict()}

    def _list_sessions(self) -> Tuple[int, Dict[str, Any]]:
        sessions = self._need_sessions()
        return 200, {
            "sessions": [s.to_dict() for s in sessions.store.sessions()]
        }

    def _get_session(self, session_id: str) -> Tuple[int, Dict[str, Any]]:
        sessions = self._need_sessions()
        return 200, {"session": sessions.store.get(session_id).to_dict()}

    async def _close_session(
        self, session_id: str
    ) -> Tuple[int, Dict[str, Any]]:
        sessions = self._need_sessions()
        session = sessions.close(session_id)
        return 200, {"session": session.to_dict()}

    async def _apply_delta(
        self, session_id: str, body: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any]]:
        from repro.stream.delta import EdgeDeltaBatch

        sessions = self._need_sessions()
        if not isinstance(body, dict):
            raise JobSpecError(
                "POST /v1/sessions/<id>/deltas needs a JSON object body"
            )
        batch = EdgeDeltaBatch.from_dict(
            body["batch"] if "batch" in body else body
        )
        loop = asyncio.get_running_loop()
        ctx = current()

        def apply():
            with activate(ctx):
                return sessions.apply(session_id, batch)

        session = await loop.run_in_executor(None, apply)
        return 200, {"session": session.to_dict()}

    async def _compact_session(
        self, session_id: str
    ) -> Tuple[int, Dict[str, Any]]:
        sessions = self._need_sessions()
        loop = asyncio.get_running_loop()
        ctx = current()

        def compact():
            with activate(ctx):
                return sessions.compact(session_id)

        session = await loop.run_in_executor(None, compact)
        return 200, {"session": session.to_dict()}

    async def _submit_session_job(
        self, session_id: str, body: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any]]:
        """Admit one query pinned to the session's *current* version.

        The server (not the client) stamps the version digest and
        resolves the default BFS source from the resident base graph,
        so a resubmission at an unchanged version digests to the same
        cache key and resolves as a pure cache hit.
        """
        sessions = self._need_sessions()
        if not isinstance(body, dict):
            raise JobSpecError(
                "POST /v1/sessions/<id>/jobs needs a JSON object body"
            )
        workload = str(body.get("workload", "pr"))
        mode = str(body.get("mode", "incremental"))
        raw_source = body.get("source")
        try:
            source = None if raw_source is None else int(raw_source)
        except (TypeError, ValueError):
            raise JobSpecError("source must be an integer") from None
        loop = asyncio.get_running_loop()
        ctx = current()

        def prepare():
            with activate(ctx):
                record = sessions.store.get(session_id)
                overlay = sessions.overlay(session_id)
                resolved = sessions.resolve_job_source(
                    session_id, workload, source
                )
                return record, overlay.version_digest, resolved

        record, digest, resolved = await loop.run_in_executor(None, prepare)
        spec = JobSpec(
            workload=workload,
            graph=record.graph,
            seed=record.seed,
            source=resolved,
            session=session_id,
            graph_digest=digest,
            mode=mode,
        )
        if spec.trace is None:
            if ctx is not None:
                spec = dataclasses.replace(spec, trace=ctx.traceparent())
        client = str(body.get("client", "anonymous"))
        try:
            priority = int(body.get("priority", 0))
        except (TypeError, ValueError):
            raise JobSpecError("priority must be an integer") from None
        job = await self.scheduler.submit(
            spec, client=client, priority=priority
        )
        status = 200 if job.cached else 201
        return status, {"job": job.to_dict()}

    async def _events(
        self, job_id: str, query: Dict[str, list]
    ) -> Tuple[int, Dict[str, Any]]:
        def _one(name: str, default: float) -> float:
            values = query.get(name)
            if not values:
                return default
            try:
                return float(values[-1])
            except ValueError:
                raise _HttpError(400, "bad_query",
                                 f"{name} must be a number") from None

        since = int(_one("since", 0))
        timeout = min(120.0, max(0.0, _one("timeout", 30.0)))
        events, nxt = await self.scheduler.events_since(
            job_id, since=since, timeout=timeout
        )
        job = self.store.get(job_id)
        return 200, {
            "events": _jsonable(events),
            "next": nxt,
            "state": job.state,
        }


class _HttpError(Exception):
    """Protocol-level rejection with a concrete status code."""

    def __init__(self, status: int, code: str, message: str) -> None:
        self.status = status
        self.code = code
        super().__init__(message)


# ----------------------------------------------------------------------
# Composed server
# ----------------------------------------------------------------------


class ReproService:
    """Store + scheduler + HTTP listener with a drain-on-signal lifecycle.

    ``serve_forever`` runs until :meth:`shutdown` is called (SIGTERM and
    SIGINT are wired to it): the listener closes, the scheduler drains
    (running jobs finish within ``drain_timeout``; queued jobs stay
    persisted), and the store compacts, so a restarted server resumes
    exactly the queued work.

    Any of ``quota_max_active``, ``quota_rate`` and ``quota_burst``
    turns on per-tenant :class:`~repro.service.scheduler.TenantQuotas`,
    which check their values here, before anything is opened or bound.
    """

    def __init__(
        self,
        service_dir: str,
        cache_dir: Optional[str] = None,
        runner: Optional[SweepRunner] = None,
        max_queue_depth: int = 64,
        job_workers: int = 2,
        drain_timeout: Optional[float] = 30.0,
        quota_max_active: Optional[int] = None,
        quota_rate: Optional[float] = None,
        quota_burst: Optional[float] = None,
    ) -> None:
        from repro.stream.session import SessionManager, SessionStore

        quotas = None
        limits = (quota_max_active, quota_rate, quota_burst)
        if any(limit is not None for limit in limits):
            quotas = TenantQuotas(
                max_active=quota_max_active,
                rate=quota_rate,
                burst=quota_burst,
            )
        self.store = JobStore(service_dir)
        self.session_store = SessionStore(service_dir)
        self.sessions = SessionManager(self.session_store)
        self.runner = (
            runner
            if runner is not None
            else SweepRunner(workers=1, cache_dir=cache_dir)
        )
        self.scheduler = JobScheduler(
            self.store,
            runner=self.runner,
            max_queue_depth=max_queue_depth,
            job_workers=job_workers,
            quotas=quotas,
            sessions=self.sessions,
        )
        self.http = ServiceHTTP(
            self.scheduler, self.store, self.runner.cache,
            sessions=self.sessions,
        )
        self.drain_timeout = drain_timeout
        self._stop: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind the listener, recover persisted jobs, start workers.

        Returns the bound port (useful with ``port=0``).
        """
        self._stop = asyncio.Event()
        resumed = await self.scheduler.start()
        self._server = await asyncio.start_server(
            self.http.handle, host=host, port=port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.http.started_monotonic = time.monotonic()
        trace_event("service.start", host=host, port=self.port,
                    resumed=resumed)
        return self.port

    def shutdown(self) -> None:
        """Request a graceful drain-and-exit (signal-handler safe)."""
        if self._stop is not None:
            self._stop.set()

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.shutdown)
            except (NotImplementedError, RuntimeError):
                pass  # non-unix or nested loop: rely on KeyboardInterrupt

    async def serve_forever(
        self, host: str = "127.0.0.1", port: int = 0, on_ready=None
    ) -> Dict[str, int]:
        """Run until a shutdown signal, then drain.  Returns the drain
        summary (queued jobs left persisted, whether running finished).
        ``on_ready(port)`` fires once the listener is bound.
        """
        bound = await self.start(host=host, port=port)
        self._install_signal_handlers()
        if on_ready is not None:
            on_ready(bound)
        assert self._stop is not None
        await self._stop.wait()
        return await self.stop()

    async def stop(self) -> Dict[str, int]:
        """Close the listener, drain the scheduler, compact the store."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        summary = await self.scheduler.drain(timeout=self.drain_timeout)
        self.store.compact()
        self.session_store.compact()
        trace_event("service.stop", **summary)
        return summary
