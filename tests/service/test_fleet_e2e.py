"""Two-worker fleet E2E: real subprocesses, a real SIGKILL, zero loss.

Boots ``repro serve --workers 2`` exactly the way an operator would
(the coordinator spawns two ``repro worker`` subprocesses sharing its
run cache), submits a small grid, SIGKILLs one worker mid-queue, and
asserts every job still completes -- the killed worker's in-flight jobs
re-queue onto the survivor.  ``REPRO_SERVICE_JOB_DELAY_MS`` holds each
job in flight long enough for the kill to land mid-job.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service.client import ServiceClient

from tests.service.test_recovery import wait_for_port

SPEC = dict(
    workload="bfs",
    graph="rmat:6:4",
    scale=1.0 / 1024.0,
    max_quanta=200_000,
)


def popen_fleet(tmp_path, workers=2, delay_ms=1200, lease=2.0,
                trace_file=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_TRACE", None)
    if trace_file is not None:
        env["REPRO_TRACE"] = str(trace_file)
    # The chaos knob: every job (worker-side too -- the pool inherits
    # the environment) sleeps before running, so kills land mid-job.
    env["REPRO_SERVICE_JOB_DELAY_MS"] = str(delay_ms)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--state-dir", str(tmp_path / "state"),
            "--cache-dir", str(tmp_path / "cache"),
            "--job-workers", "2",
            "--workers", str(workers),
            "--lease", str(lease),
            "--drain-timeout", "60",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )


@pytest.mark.slow
class TestTwoWorkerFleet:
    def test_kill_one_worker_loses_no_jobs(self, tmp_path):
        proc = popen_fleet(tmp_path)
        victim_pid = None
        try:
            port = wait_for_port(proc)
            client = ServiceClient(f"http://127.0.0.1:{port}")

            # Both workers must have joined before the grid goes in.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                roster = client.workers()
                if sum(1 for w in roster if w["state"] == "alive") == 2:
                    break
                time.sleep(0.2)
            else:
                raise AssertionError(f"fleet never formed: {roster}")

            jobs = [
                client.submit(dict(SPEC, source=i), client="e2e")["id"]
                for i in range(6)
            ]

            # Wait until a worker actually holds jobs in flight, then
            # SIGKILL it -- the real crash, no drain, no goodbye.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                busy = [
                    w for w in client.workers()
                    if w["state"] == "alive" and w["jobs_inflight"]
                ]
                if busy:
                    victim = busy[0]
                    victim_pid = int(victim["meta"]["pid"])
                    os.kill(victim_pid, signal.SIGKILL)
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("no worker ever went busy")

            # Zero loss: every job settles done despite the kill.
            for job_id in jobs:
                settled = client.wait(job_id, timeout=180.0)
                assert settled["state"] == "done", settled

            metrics = client.metrics()
            fleet = metrics["fleet"]
            assert fleet.get("fleet.requeued", 0) >= 1, fleet
            assert fleet.get("fleet.requeue_exhausted", 0) == 0, fleet
            dead = [
                w for w in client.workers() if w["state"] == "dead"
            ]
            assert len(dead) == 1

            # A completed job's result is fetchable from the shared
            # cache even though a worker (not the coordinator) ran it.
            payload = client.result(jobs[0])
            assert payload["result"]["workload"] == "bfs"

            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=120.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30.0)
        assert proc.returncode == 0
        assert "drained: running finished" in out


@pytest.mark.slow
class TestFleetTracePropagation:
    def test_one_job_stitches_to_one_tree(self, tmp_path, monkeypatch):
        """A traced submission through a real 2-worker fleet yields one
        span tree: client -> scheduler -> dispatch -> worker -> run,
        spanning at least three processes, with zero orphans."""
        from repro.obs import tracing
        from repro.obs.stitch import (
            load_trace_records,
            render_tree,
            resolve_trace_id,
            stitch,
            summarize,
        )

        trace_file = tmp_path / "trace.jsonl"
        # The submitting client (this process) must trace too.
        monkeypatch.setenv(tracing.ENV_VAR, str(trace_file))
        tracing.refresh()

        proc = popen_fleet(tmp_path, delay_ms=0, trace_file=trace_file)
        try:
            port = wait_for_port(proc)
            client = ServiceClient(f"http://127.0.0.1:{port}")
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                roster = client.workers()
                if sum(1 for w in roster if w["state"] == "alive") == 2:
                    break
                time.sleep(0.2)
            else:
                raise AssertionError(f"fleet never formed: {roster}")

            job = client.submit(dict(SPEC, source=0), client="traced")
            settled = client.wait(job["id"], timeout=180.0)
            assert settled["state"] == "done", settled
            assert settled["spec"]["trace"] is not None

            # The Prometheus exposition must validate with the fleet
            # histograms populated.
            from repro.obs.prom import validate_exposition

            errors, families = validate_exposition(client.metrics_prom())
            assert errors == []
            assert sum(
                1 for kind in families.values() if kind == "histogram"
            ) >= 5

            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=120.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30.0)

        records = load_trace_records([str(trace_file)])
        trace_id = resolve_trace_id(records, job["id"])
        assert trace_id is not None, "no span carried the job id"
        roots, orphans = stitch(records, trace_id)
        stats = summarize(roots, orphans)
        tree = render_tree(roots, orphans, trace_id)
        assert stats["trees"] == 1, tree
        assert stats["orphans"] == 0, tree
        assert stats["processes"] >= 3, tree
        assert roots[0].name == "client.submit", tree

        def names(nodes, out):
            for node in nodes:
                out.add(node.name)
                names(node.children, out)
            return out

        seen = names(roots, set())
        for expected in ("client.submit", "fleet.dispatch",
                         "service.run", "sweep.run"):
            assert expected in seen, tree
