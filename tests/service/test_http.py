"""HTTP API: routes, status codes, backpressure, drain refusal.

Each test boots an in-process :class:`ReproService` on an ephemeral
port and talks to it over real sockets (urllib in an executor thread,
since the server shares the test's event loop).
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import (
    JobSpecError,
    JobStateError,
    QueueFullError,
    ServiceUnavailableError,
    UnknownJobError,
)
from repro.service.http import ReproService
from repro.service.client import ServiceClient


def make_spec(**overrides):
    spec = dict(
        workload="bfs",
        graph="rmat:6:4",
        source=0,
        scale=1.0 / 1024.0,
        max_quanta=200_000,
    )
    spec.update(overrides)
    return spec


def http_request(port, method, path, body=None):
    """Raw request returning ``(status, payload, headers)`` always."""
    url = f"http://127.0.0.1:{port}{path}"
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60.0) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), dict(err.headers)


def serve(tmp_path, body, **service_kwargs):
    """Boot a service, run ``await body(svc, port)``, always stop."""

    async def main():
        svc = ReproService(
            str(tmp_path / "state"),
            cache_dir=str(tmp_path / "cache"),
            **service_kwargs,
        )
        port = await svc.start()
        try:
            return await body(svc, port)
        finally:
            await svc.stop()

    return asyncio.run(main())


async def call(fn, *args, **kwargs):
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(None, lambda: fn(*args, **kwargs))


class TestBasicRoutes:
    def test_healthz_and_metrics(self, tmp_path):
        async def body(svc, port):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            health = await call(client.health)
            assert health["status"] == "ok"
            assert health["queue_depth"] == 0
            assert "version" in health
            metrics = await call(client.metrics)
            assert "counters" in metrics
            assert metrics["scheduler"]["max_queue_depth"] == 64

        serve(tmp_path, body)

    def test_unknown_routes(self, tmp_path):
        async def body(svc, port):
            status, payload, _ = await call(
                http_request, port, "GET", "/v1/nothing"
            )
            assert status == 404
            status, payload, _ = await call(
                http_request, port, "PUT", "/v1/jobs"
            )
            assert status == 405
            client = ServiceClient(f"http://127.0.0.1:{port}")
            with pytest.raises(UnknownJobError):
                await call(client.job, "j-nope")

        serve(tmp_path, body)

    def test_non_integer_field_is_400_before_any_job(self, tmp_path):
        async def body(svc, port):
            status, payload, _ = await call(
                http_request,
                port,
                "POST",
                "/v1/jobs",
                {"spec": make_spec(gpns=2.0)},
            )
            assert status == 400
            assert payload["error"] == "bad_spec"
            assert "gpns must be an integer" in payload["message"]
            status, payload, _ = await call(
                http_request, port, "GET", "/v1/jobs"
            )
            assert status == 200
            assert payload["jobs"] == []

        serve(tmp_path, body)

    def test_bad_spec_is_400(self, tmp_path):
        async def body(svc, port):
            status, payload, _ = await call(
                http_request,
                port,
                "POST",
                "/v1/jobs",
                {"spec": {"workload": "mystery", "graph": "rmat:6:4"}},
            )
            assert status == 400
            assert payload["error"] == "bad_spec"
            # A source outside the graph is refused at admission too.
            status, payload, _ = await call(
                http_request,
                port,
                "POST",
                "/v1/jobs",
                {"spec": {"workload": "bfs", "graph": "rmat:6:4",
                          "source": 999999}},
            )
            assert status == 400
            assert payload["error"] == "bad_spec"
            assert "source 999999 out of range" in payload["message"]
            client = ServiceClient(f"http://127.0.0.1:{port}")
            with pytest.raises(JobSpecError):
                await call(client.submit, {"workload": "bfs"})

        serve(tmp_path, body)


class TestJobLifecycle:
    def test_submit_wait_result_then_cached_duplicate(self, tmp_path):
        async def body(svc, port):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            status, payload, _ = await call(
                http_request,
                port,
                "POST",
                "/v1/jobs",
                {"spec": make_spec(), "client": "alice"},
            )
            assert status == 201  # enqueued, not cached
            job = payload["job"]
            settled = await call(client.wait, job["id"], 120.0)
            assert settled["state"] == "done"

            fetched = await call(client.result, job["id"])
            result = fetched["result"]
            assert result["workload"] == "bfs"
            assert result["num_vertices"] == 64
            assert result["gteps"] > 0
            assert "summary" in result

            # The duplicate answers 200 from the cache, no recompute.
            status, payload, _ = await call(
                http_request,
                port,
                "POST",
                "/v1/jobs",
                {"spec": make_spec(), "client": "bob"},
            )
            assert status == 200
            assert payload["job"]["cached"] is True
            assert payload["job"]["state"] == "done"

            listed = await call(client.jobs)
            assert len(listed) == 2

        serve(tmp_path, body, job_workers=1)

    def test_result_before_done_is_409(self, tmp_path):
        gate = threading.Event()

        async def body(svc, port):
            svc.scheduler._run_blocking = (
                lambda job: gate.wait(30.0) and object()
            )
            client = ServiceClient(f"http://127.0.0.1:{port}")
            job = await call(client.submit, make_spec())
            status, payload, _ = await call(
                http_request, port, "GET", f"/v1/jobs/{job['id']}/result"
            )
            assert status == 409
            assert payload["error"] == "job_state"
            assert payload["state"] in ("queued", "running")
            gate.set()
            await call(client.wait, job["id"], 60.0)

        serve(tmp_path, body, job_workers=1)

    def test_cancel_then_conflict(self, tmp_path):
        gate = threading.Event()

        async def body(svc, port):
            svc.scheduler._run_blocking = (
                lambda job: gate.wait(30.0) and object()
            )
            client = ServiceClient(f"http://127.0.0.1:{port}")
            # Occupy the single worker, then queue a victim to cancel.
            blocker = await call(client.submit, make_spec(source=1))
            victim = await call(client.submit, make_spec(source=2))
            cancelled = await call(client.cancel, victim["id"])
            assert cancelled["state"] == "cancelled"
            with pytest.raises(JobStateError):
                await call(client.cancel, victim["id"])
            gate.set()
            await call(client.wait, blocker["id"], 60.0)

        serve(tmp_path, body, job_workers=1)

    def test_events_stream_reaches_terminal(self, tmp_path):
        async def body(svc, port):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            job = await call(client.submit, make_spec())
            states, since = [], 0
            for _ in range(200):
                events, since, state = await call(
                    client.events, job["id"], since, 5.0
                )
                states.extend(
                    e["state"] for e in events if e["type"] == "state"
                )
                if state in ("done", "failed"):
                    break
            assert states[0] == "submitted"
            assert "queued" in states
            assert states[-1] == "done"

        serve(tmp_path, body, job_workers=1)


class TestBackpressureAndDrain:
    def test_429_carries_retry_contract(self, tmp_path):
        gate = threading.Event()

        async def body(svc, port):
            svc.scheduler._run_blocking = (
                lambda job: gate.wait(30.0) and object()
            )
            client = ServiceClient(f"http://127.0.0.1:{port}")
            await call(client.submit, make_spec(source=1))  # running
            await call(client.submit, make_spec(source=2))  # queued: full
            status, payload, headers = await call(
                http_request,
                port,
                "POST",
                "/v1/jobs",
                {"spec": make_spec(source=3)},
            )
            assert status == 429
            assert payload["error"] == "queue_full"
            assert payload["depth"] >= 1
            assert payload["limit"] == 1
            assert payload["retry_after_seconds"] >= 1.0
            assert "Retry-After" in headers

            with pytest.raises(QueueFullError) as err:
                await call(client.submit, make_spec(source=3))
            assert err.value.limit == 1
            gate.set()

        serve(tmp_path, body, max_queue_depth=1, job_workers=1)

    def test_draining_refuses_with_503(self, tmp_path):
        async def body(svc, port):
            svc.scheduler.draining = True
            status, payload, _ = await call(
                http_request, port, "POST", "/v1/jobs",
                {"spec": make_spec()},
            )
            assert status == 503
            assert payload["error"] == "draining"
            client = ServiceClient(f"http://127.0.0.1:{port}")
            with pytest.raises(ServiceUnavailableError):
                await call(client.submit, make_spec())
            health = await call(client.health)
            assert health["status"] == "draining"

        serve(tmp_path, body)


class TestMetricsFamilies:
    def test_metrics_exposes_graph_store_family(self, tmp_path):
        # The graph_store.* counters (artifact hits/builds) must be
        # visible through /metrics next to service.* -- submitting a
        # job builds or maps its graph, so the family is non-empty.
        async def body(svc, port):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            await call(client.submit, make_spec())
            metrics = await call(client.metrics)
            for family in ("service", "graph_store", "counters"):
                assert family in metrics
            assert any(
                name.startswith("graph_store.")
                for name in metrics["graph_store"]
            ), metrics["graph_store"]
            # Families are exact prefix slices of the full registry.
            for name, value in metrics["graph_store"].items():
                assert name.startswith("graph_store.")
                assert metrics["counters"][name] == value
            assert all(
                name.startswith("service.") for name in metrics["service"]
            )

        serve(tmp_path, body, job_workers=1)
