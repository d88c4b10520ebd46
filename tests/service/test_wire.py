"""The service's wire: every error it sends, malformed requests, and the
trace a submission's admission runs under.

Each error is raised inside a live route and read back over a real
socket; the expected status, ``Retry-After`` and payload are literals,
so a change to a declaration in :mod:`repro.errors` that moves the wire
fails here.  The client then rebuilds each payload into its class.
"""

from __future__ import annotations

import asyncio
import io
import json
import urllib.error

import pytest

from repro.errors import (
    ConfigError,
    JobSpecError,
    JobStateError,
    QueueFullError,
    QuotaExceededError,
    RateLimitedError,
    ServiceError,
    ServiceUnavailableError,
    SessionStateError,
    StreamError,
    UnknownJobError,
    UnknownSessionError,
)
from repro.obs.counters import FAULT_COUNTERS
from repro.service.client import ServiceClient

from tests.service.test_http import call, make_spec, serve

#: (error raised in the route, status, Retry-After, payload, the class
#: the client rebuilds).  A plain ReproError has no class of its own on
#: the wire: the client answers its 400 as a JobSpecError.
WIRE = [
    (
        QueueFullError(depth=64, limit=64, retry_after_seconds=2.5),
        429, "2",
        {"error": "queue_full", "depth": 64, "limit": 64,
         "retry_after_seconds": 2.5,
         "message": "job queue is full (64/64); retry in ~2.5s"},
        QueueFullError,
    ),
    (
        QuotaExceededError("team-a", active=4, limit=4),
        429, "1",
        {"error": "quota_exceeded", "tenant": "team-a", "active": 4,
         "limit": 4, "retry_after_seconds": 1.0,
         "message": "tenant 'team-a' has 4 active job(s), quota is 4; "
                    "retry in ~1s"},
        QuotaExceededError,
    ),
    (
        RateLimitedError("team-b", rate=2.0, retry_after_seconds=0.5),
        429, "0",
        {"error": "rate_limited", "tenant": "team-b", "rate": 2.0,
         "retry_after_seconds": 0.5,
         "message": "tenant 'team-b' exceeded 2 submissions/sec; "
                    "retry in ~0.5s"},
        RateLimitedError,
    ),
    (
        UnknownJobError("j-gone"),
        404, None,
        {"error": "unknown_job", "job_id": "j-gone",
         "message": "unknown job 'j-gone'"},
        UnknownJobError,
    ),
    (
        UnknownSessionError("s-gone"),
        404, None,
        {"error": "unknown_session", "session_id": "s-gone",
         "message": "unknown session 's-gone'"},
        UnknownSessionError,
    ),
    (
        JobStateError("job j-1 is running", state="running"),
        409, None,
        {"error": "job_state", "state": "running",
         "message": "job j-1 is running"},
        JobStateError,
    ),
    (
        SessionStateError("session s-1 is closed", state="closed"),
        409, None,
        {"error": "session_state", "state": "closed",
         "message": "session s-1 is closed"},
        SessionStateError,
    ),
    (
        ServiceUnavailableError("service is draining"),
        503, None,
        {"error": "draining", "message": "service is draining"},
        ServiceUnavailableError,
    ),
    (
        JobSpecError("unknown workload 'apsp'"),
        400, None,
        {"error": "bad_spec", "message": "unknown workload 'apsp'"},
        JobSpecError,
    ),
    (
        StreamError("edge (1, 2) already exists"),
        400, None,
        {"error": "bad_delta", "message": "edge (1, 2) already exists"},
        StreamError,
    ),
    (
        ConfigError("gpns must be >= 1"),
        400, None,
        {"error": "bad_request", "message": "gpns must be >= 1"},
        JobSpecError,
    ),
]


async def raw_request(port, data: bytes):
    """Send raw bytes; return ``(status, headers, body bytes)``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(data)
    await writer.drain()
    try:
        response = await asyncio.wait_for(reader.read(), 10.0)
    finally:
        writer.close()
    head, _, body = response.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1]) if lines[0] else None
    headers = dict(line.split(": ", 1) for line in lines[1:] if line)
    return status, headers, body


@pytest.mark.parametrize(
    "error, status, retry_after, payload, rebuilt",
    WIRE,
    ids=[type(case[0]).__name__ for case in WIRE],
)
def test_each_error_keeps_its_wire(
    tmp_path, error, status, retry_after, payload, rebuilt
):
    def route(*_):
        raise error

    async def body(svc, port):
        svc.http._healthz = route
        before = FAULT_COUNTERS.snapshot().get("service.http.429", 0)
        got = await raw_request(
            port, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        after = FAULT_COUNTERS.snapshot().get("service.http.429", 0)
        return got, after - before

    (got_status, headers, raw), throttled = serve(tmp_path, body)
    assert got_status == status
    assert headers.get("Retry-After") == retry_after
    assert headers["Content-Type"] == "application/json"
    assert json.loads(raw) == payload
    assert throttled == (1 if status == 429 else 0)

    err = ServiceClient._to_error(
        urllib.error.HTTPError("http://t/", status, "", {}, io.BytesIO(raw))
    )
    assert type(err) is rebuilt
    assert str(err) == payload["message"]
    for name, value in payload.items():
        if name not in ("error", "message"):
            assert getattr(err, name) == value


def test_unknown_status_without_a_code_is_a_service_error():
    err = ServiceClient._to_error(
        urllib.error.HTTPError(
            "http://t/", 413, "", {},
            io.BytesIO(b'{"error": "body_too_large", "message": "big"}'),
        )
    )
    assert type(err) is ServiceError
    assert str(err) == "HTTP 413: big"


class TestMalformedRequests:
    @pytest.mark.parametrize("length", [b"abc", b"-5", b"+5", b"1_0"])
    def test_bad_content_length_is_400(self, tmp_path, length):
        async def body(svc, port):
            return await raw_request(
                port,
                b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: " + length + b"\r\n\r\n{}",
            )

        status, _, raw = serve(tmp_path, body)
        assert status == 400
        assert json.loads(raw)["error"] == "bad_request"

    @pytest.mark.parametrize("query", [
        "since=nan", "since=inf", "since=-inf", "since=-1",
        "timeout=nan", "timeout=inf",
    ])
    def test_bad_events_query_is_400(self, tmp_path, query):
        async def body(svc, port):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            job = await call(client.submit, make_spec())
            request = (
                f"GET /v1/jobs/{job['id']}/events?{query} HTTP/1.1\r\n"
                "Host: t\r\n\r\n"
            )
            return await raw_request(port, request.encode("latin-1"))

        status, _, raw = serve(tmp_path, body)
        assert status == 400
        assert json.loads(raw)["error"] == "bad_query"


def test_admission_graph_build_joins_the_callers_trace(
    tmp_path, monkeypatch
):
    """A cold store's build at admission stitches under client.submit."""
    from repro.obs import tracing
    from repro.obs.stitch import load_trace_records, stitch, summarize
    from repro.runner.spec import _GRAPH_MEMO

    trace_file = tmp_path / "trace.jsonl"
    monkeypatch.setenv(tracing.ENV_VAR, str(trace_file))
    monkeypatch.setenv("REPRO_GRAPH_STORE_DIR", str(tmp_path / "graphs"))
    tracing.refresh()
    _GRAPH_MEMO.clear()

    async def body(svc, port):
        client = ServiceClient(f"http://127.0.0.1:{port}")
        job = await call(client.submit, make_spec(graph="rmat:8:4"), "t")
        await call(client.wait, job["id"], 60.0)

    try:
        serve(tmp_path, body)
    finally:
        _GRAPH_MEMO.clear()

    records = load_trace_records([str(trace_file)])
    trace_id = next(
        str(r["trace_id"]) for r in records
        if r.get("name") == "client.submit"
    )
    for name in ("graph_store.build", "graph_store.publish"):
        (event,) = [r for r in records if r.get("name") == name]
        assert event.get("trace_id") == trace_id
    roots, orphans = stitch(records, trace_id)
    stats = summarize(roots, orphans)
    assert stats["trees"] == 1
    assert stats["orphans"] == 0
    assert roots[0].name == "client.submit"
