"""ServiceClient: structured 429 rehydration and retry-after honoring.

Two layers: `_to_error` unit tests against crafted HTTP error payloads
(the exact wire contract), and end-to-end round-trips through a live
service configured with per-tenant quotas/rate limits.
"""

from __future__ import annotations

import asyncio
import io
import json
import threading
import urllib.error

import pytest

from repro.errors import (
    QueueFullError,
    QuotaExceededError,
    RateLimitedError,
    ThrottledError,
    UnknownJobError,
    UnknownSessionError,
)
from repro.service.client import ServiceClient

from tests.service.test_http import call, make_spec, serve


def http_error(code, payload):
    return urllib.error.HTTPError(
        "http://test/v1/jobs",
        code,
        "status",
        {},
        io.BytesIO(json.dumps(payload).encode("utf-8")),
    )


class TestErrorRehydration:
    def test_queue_full(self):
        err = ServiceClient._to_error(
            http_error(429, {
                "error": "queue_full", "depth": 64, "limit": 64,
                "retry_after_seconds": 2.5, "message": "full",
            })
        )
        assert isinstance(err, QueueFullError)
        assert err.depth == 64 and err.limit == 64
        assert err.retry_after_seconds == 2.5

    def test_quota_exceeded(self):
        err = ServiceClient._to_error(
            http_error(429, {
                "error": "quota_exceeded", "tenant": "team-a",
                "active": 4, "limit": 4, "retry_after_seconds": 1.5,
                "message": "over quota",
            })
        )
        assert isinstance(err, QuotaExceededError)
        assert isinstance(err, ThrottledError)
        assert err.tenant == "team-a"
        assert err.active == 4 and err.limit == 4
        assert err.retry_after_seconds == 1.5

    def test_rate_limited(self):
        err = ServiceClient._to_error(
            http_error(429, {
                "error": "rate_limited", "tenant": "team-b",
                "rate": 2.0, "retry_after_seconds": 0.5,
                "message": "slow down",
            })
        )
        assert isinstance(err, RateLimitedError)
        assert err.tenant == "team-b"
        assert err.rate == 2.0
        assert err.retry_after_seconds == 0.5

    def test_legacy_429_defaults_to_queue_full(self):
        # A pre-fleet server sends no "error" discriminator.
        err = ServiceClient._to_error(
            http_error(429, {"depth": 3, "limit": 2, "message": "full"})
        )
        assert isinstance(err, QueueFullError)

    def test_unknown_session_vs_unknown_job_on_404(self):
        session = ServiceClient._to_error(
            http_error(404, {"error": "unknown_session",
                             "session_id": "s-gone", "message": "?"})
        )
        assert isinstance(session, UnknownSessionError)
        assert session.session_id == "s-gone"
        job = ServiceClient._to_error(
            http_error(404, {"error": "unknown_job",
                             "job_id": "j-gone", "message": "?"})
        )
        assert isinstance(job, UnknownJobError)
        assert job.job_id == "j-gone"


class RetryProbeClient(ServiceClient):
    """Scripted transport: raise the queued errors, then succeed."""

    def __init__(self, errors):
        super().__init__("http://probe")
        self.errors = list(errors)
        self.slept = []
        self._sleep = self.slept.append
        self.attempts = 0

    def _request(self, method, path, body=None, timeout=None):
        self.attempts += 1
        if self.errors:
            raise self.errors.pop(0)
        return {"job": {"id": "j-ok", "state": "queued"}}


class TestSubmitRetries:
    def test_no_retries_by_default(self):
        client = RetryProbeClient([QueueFullError(1, 1, 2.0)])
        with pytest.raises(QueueFullError):
            client.submit(make_spec())
        assert client.attempts == 1
        assert client.slept == []

    def test_sleeps_out_the_servers_hint(self):
        client = RetryProbeClient([
            RateLimitedError("t", rate=1.0, retry_after_seconds=0.25),
            QuotaExceededError("t", 2, 2, retry_after_seconds=1.5),
        ])
        job = client.submit(make_spec(), retries=2)
        assert job["id"] == "j-ok"
        assert client.attempts == 3
        assert client.slept == [0.25, 1.5]

    def test_wait_is_capped(self):
        client = RetryProbeClient([
            QueueFullError(9, 9, retry_after_seconds=600.0),
        ])
        client.submit(make_spec(), retries=1, max_retry_wait=2.0)
        assert client.slept == [2.0]

    def test_final_throttle_reraises(self):
        client = RetryProbeClient([
            QueueFullError(1, 1, 0.1),
            QueueFullError(2, 1, 0.1),
            QueueFullError(3, 1, 0.1),
        ])
        with pytest.raises(QueueFullError) as err:
            client.submit(make_spec(), retries=2)
        assert err.value.depth == 3  # the last attempt's error
        assert client.attempts == 3
        assert len(client.slept) == 2


class TestEndToEnd:
    def test_quota_429_round_trips(self, tmp_path):
        async def body(svc, port):
            gate = threading.Event()

            def fake(job):
                assert gate.wait(60.0)
                return object()

            svc.scheduler._run_blocking = fake
            client = ServiceClient(f"http://127.0.0.1:{port}")
            await call(client.submit, make_spec(source=0), "team-a")
            try:
                with pytest.raises(QuotaExceededError) as err:
                    await call(
                        client.submit, make_spec(source=1), "team-a"
                    )
                assert err.value.tenant == "team-a"
                assert err.value.active == 1
                assert err.value.limit == 1
                assert err.value.retry_after_seconds > 0
                # Quotas are per tenant: another client is admitted.
                await call(client.submit, make_spec(source=2), "team-b")
            finally:
                gate.set()

        serve(tmp_path, body, quota_max_active=1)

    def test_rate_limit_429_round_trips_with_header(self, tmp_path):
        from tests.service.test_http import http_request

        async def body(svc, port):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            await call(client.submit, make_spec(source=0), "fast")
            with pytest.raises(RateLimitedError) as err:
                await call(client.submit, make_spec(source=1), "fast")
            assert err.value.tenant == "fast"
            assert err.value.rate == 0.001
            # The raw response carries the Retry-After header too.
            status, payload, headers = await call(
                http_request, port, "POST", "/v1/jobs",
                {"spec": make_spec(source=2), "client": "fast"},
            )
            assert status == 429
            assert payload["error"] == "rate_limited"
            assert "Retry-After" in headers

        serve(tmp_path, body, quota_rate=0.001, quota_burst=1.0)

    def test_client_retry_rides_out_backpressure(self, tmp_path):
        # queue_depth 1 + a gated runner: the first job occupies the
        # queue; a retrying submit blocks, the gate opens, and the
        # retry lands.  real sleeps, so keep the hint tiny.
        async def body(svc, port):
            gate = threading.Event()
            started = threading.Event()

            def fake(job):
                started.set()
                assert gate.wait(60.0)
                return object()

            svc.scheduler._run_blocking = fake
            client = ServiceClient(f"http://127.0.0.1:{port}")
            sleeps = []

            def sleep_and_release(seconds):
                sleeps.append(seconds)
                gate.set()

            client._sleep = sleep_and_release
            await call(client.submit, make_spec(source=0), "t")
            await call(started.wait, 60.0)
            # Fill the waiting queue (depth 1).
            await call(client.submit, make_spec(source=1), "t")
            job = await call(
                lambda: client.submit(
                    make_spec(source=2), "t", retries=20
                )
            )
            assert job["state"] in ("queued", "done")
            assert sleeps  # it really was throttled first

        serve(tmp_path, body, max_queue_depth=1, job_workers=1)
