"""Service observability: /metrics exposition, healthz contract,
trace propagation over HTTP, and the ``repro top`` dashboard."""

from __future__ import annotations

import io
import json
import urllib.request

import pytest

from repro.obs import trace_context
from repro.obs.prom import validate_exposition
from repro.obs.stitch import resolve_trace_id, stitch, summarize
from repro.service.client import ServiceClient
from repro.service.top import ServiceTop

from tests.service.test_http import call, http_request, make_spec, serve


def prom_request(port, accept=None, path="/metrics?format=prom"):
    headers = {"Accept": accept} if accept else {}
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", headers=headers
    )
    with urllib.request.urlopen(request, timeout=60.0) as resp:
        return resp.status, resp.read().decode(), dict(resp.headers)


class TestHealthzContract:
    def test_required_fields(self, tmp_path):
        async def body(svc, port):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            health = await call(client.health)
            assert health["status"] == "ok"
            assert isinstance(health["version"], str)
            assert health["uptime_seconds"] >= 0.0
            assert health["queue_depth"] == 0
            assert "jobs" in health

        serve(tmp_path, body)

    def test_uptime_advances(self, tmp_path):
        async def body(svc, port):
            import asyncio

            client = ServiceClient(f"http://127.0.0.1:{port}")
            first = (await call(client.health))["uptime_seconds"]
            await asyncio.sleep(0.05)
            second = (await call(client.health))["uptime_seconds"]
            assert second >= first

        serve(tmp_path, body)


class TestMetricsEndpoint:
    def test_json_carries_gauges_and_histograms(self, tmp_path):
        async def body(svc, port):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            metrics = await call(client.metrics)
            assert "gauges" in metrics and "histograms" in metrics
            # Scrape-time refresh publishes the queue gauges even on an
            # idle service.
            assert metrics["gauges"]["service.queue_depth"] == 0.0
            hists = metrics["histograms"]
            assert "service.run_seconds" in hists
            assert hists["service.run_seconds"]["buckets"][-1][0] == "+Inf"

        serve(tmp_path, body)

    def test_prom_format_param(self, tmp_path):
        async def body(svc, port):
            status, text, headers = await call(prom_request, port)
            assert status == 200
            assert headers["Content-Type"].startswith("text/plain")
            errors, families = validate_exposition(text)
            assert errors == []
            histogram_families = [
                name for name, kind in families.items()
                if kind == "histogram"
            ]
            assert len(histogram_families) >= 5

        serve(tmp_path, body)

    def test_prom_via_accept_header(self, tmp_path):
        async def body(svc, port):
            status, text, headers = await call(
                prom_request, port, "text/plain", "/metrics"
            )
            assert status == 200
            assert "# TYPE" in text

        serve(tmp_path, body)

    def test_json_stays_default(self, tmp_path):
        async def body(svc, port):
            status, payload, headers = await call(
                http_request, port, "GET", "/metrics"
            )
            assert status == 200
            assert headers["Content-Type"] == "application/json"
            assert "counters" in payload

        serve(tmp_path, body)


class TestTracePropagation:
    def test_header_context_lands_on_job_spec(self, tmp_path):
        ctx = trace_context.mint()

        async def body(svc, port):
            def submit_with_header():
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}/v1/jobs",
                    data=json.dumps(
                        {"spec": make_spec(), "client": "t"}
                    ).encode(),
                    headers={
                        "Content-Type": "application/json",
                        trace_context.TRACE_HEADER: ctx.traceparent(),
                    },
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=60.0) as resp:
                    return json.load(resp)

            payload = await call(submit_with_header)
            job = payload["job"]
            assert job["spec"]["trace"] is not None
            parsed = trace_context.parse_traceparent(job["spec"]["trace"])
            assert parsed.trace_id == ctx.trace_id

        serve(tmp_path, body)

    def test_spec_trace_wins_over_header(self, tmp_path):
        spec_ctx = trace_context.mint()
        header_ctx = trace_context.mint()

        async def body(svc, port):
            spec = make_spec(trace=spec_ctx.traceparent())

            def submit():
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}/v1/jobs",
                    data=json.dumps({"spec": spec}).encode(),
                    headers={
                        "Content-Type": "application/json",
                        trace_context.TRACE_HEADER:
                            header_ctx.traceparent(),
                    },
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=60.0) as resp:
                    return json.load(resp)

            job = (await call(submit))["job"]
            assert job["spec"]["trace"] == spec_ctx.traceparent()

        serve(tmp_path, body)

    def test_local_job_stitches_to_one_tree(self, tmp_path, monkeypatch):
        """client.submit -> scheduler -> run, one trace, one tree."""
        from repro.obs import tracing
        from repro.obs.stitch import load_trace_records

        trace_file = tmp_path / "trace.jsonl"
        monkeypatch.setenv(tracing.ENV_VAR, str(trace_file))
        tracing.refresh()

        async def body(svc, port):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            job = await call(client.submit, make_spec(), "t")
            await call(client.wait, job["id"], 60.0)

        serve(tmp_path, body)

        records = load_trace_records([str(trace_file)])
        names = {r.get("name") for r in records}
        assert "client.submit" in names
        assert "service.run" in names
        trace_id = next(
            str(r["trace_id"]) for r in records
            if r.get("name") == "client.submit"
        )
        assert resolve_trace_id(records, trace_id) == trace_id
        roots, orphans = stitch(records, trace_id)
        stats = summarize(roots, orphans)
        assert stats["trees"] == 1
        assert stats["orphans"] == 0
        assert roots[0].name == "client.submit"


class FakeTopClient:
    """Scripted health/metrics frames for ServiceTop tests."""

    def __init__(self, frames):
        self.frames = list(frames)
        self.calls = 0
        self._idx = 0

    def health(self):
        # One frame per poll round: health() is the first call in
        # ServiceTop.snapshot(), so it advances the script.
        self._idx = min(self.calls, len(self.frames) - 1)
        self.calls += 1
        return self.frames[self._idx]["health"]

    def metrics(self):
        return self.frames[self._idx]["metrics"]


def top_frame(submitted=0, completed=0, queue=0):
    run_hist = {
        "count": 2,
        "sum": 0.3,
        "buckets": [[0.1, 1], [1.0, 2], ["+Inf", 2]],
    }
    return {
        "health": {
            "status": "ok",
            "version": "1.0.0",
            "uptime_seconds": 12.0,
            "queue_depth": queue,
            "max_queue_depth": 64,
            "running": 0,
            "job_workers": 2,
            "jobs": {"queued": queue, "done": completed},
        },
        "metrics": {
            "counters": {
                "service.submitted": submitted,
                "service.completed": completed,
            },
            "gauges": {"service.queue_depth": float(queue)},
            "histograms": {"service.run_seconds": run_hist},
        },
    }


class TestServiceTop:
    def test_snapshot_computes_rates_from_deltas(self):
        client = FakeTopClient(
            [top_frame(submitted=0), top_frame(submitted=10)]
        )
        clock_values = iter([0.0, 2.0])
        top = ServiceTop(client, clock=lambda: next(clock_values))
        first = top.snapshot()
        assert first["rates"] == {}  # no previous poll yet
        second = top.snapshot()
        assert second["rates"]["service.submitted"] == pytest.approx(5.0)

    def test_render_frame_contents(self):
        client = FakeTopClient([top_frame(completed=4)])
        top = ServiceTop(client, clock=lambda: 0.0)
        frame = top.render_frame(top.snapshot())
        assert "service ok" in frame
        assert "run" in frame and "n=2" in frame  # histogram row

    def test_run_renders_n_frames_without_sleeping(self):
        client = FakeTopClient([top_frame(), top_frame(submitted=2)])
        stream = io.StringIO()
        sleeps = []
        clock_values = iter([0.0, 1.0, 2.0, 3.0])
        top = ServiceTop(
            client,
            stream=stream,
            interval_seconds=0.5,
            clock=lambda: next(clock_values),
            sleep=sleeps.append,
        )
        assert top.run(iterations=2) == 2
        out = stream.getvalue()
        assert out.count("repro top |") == 2
        assert sleeps == [0.5]  # no sleep after the final frame

    def test_empty_histogram_renders_dash(self):
        frame = top_frame()
        frame["metrics"]["histograms"]["service.run_seconds"] = {
            "count": 0, "sum": 0.0, "buckets": [["+Inf", 0]],
        }
        client = FakeTopClient([frame])
        top = ServiceTop(client, clock=lambda: 0.0)
        assert "n=0" in top.render_frame(top.snapshot())
