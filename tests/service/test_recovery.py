"""Crash recovery and the full subprocess lifecycle (serve/SIGTERM).

The subprocess tests boot ``python -m repro serve`` exactly the way an
operator would, drive it over HTTP, and assert the SIGTERM contract:
running work finishes, queued work persists, exit code 0.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service.http import ReproService
from repro.service.client import ServiceClient
from repro.service.store import DONE, QUEUED, RUNNING, JobSpec, JobStore

SPEC = dict(
    workload="bfs",
    graph="rmat:6:4",
    source=0,
    scale=1.0 / 1024.0,
)


def make_spec(**overrides):
    return JobSpec(**{**SPEC, **overrides})


class TestInProcessRecovery:
    def test_interrupted_running_job_completes_after_restart(self, tmp_path):
        """A job left ``running`` by a crash re-runs on the next boot."""
        store = JobStore(str(tmp_path / "state"))
        job = store.create(make_spec(max_quanta=200_000))
        job.transition(QUEUED)
        job.transition(RUNNING)
        store.put(job)
        del store  # the "crashed" process

        async def main():
            svc = ReproService(
                str(tmp_path / "state"),
                cache_dir=str(tmp_path / "cache"),
                job_workers=1,
            )
            await svc.start()
            try:
                deadline = time.monotonic() + 90.0
                while time.monotonic() < deadline:
                    if svc.store.get(job.id).terminal:
                        break
                    await asyncio.sleep(0.05)
                settled = svc.store.get(job.id)
                assert settled.state == DONE
                assert settled.key is not None
                assert svc.runner.cache.load(settled.key) is not None
            finally:
                await svc.stop()

        asyncio.run(main())


def popen_serve(tmp_path, extra=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("REPRO_CACHE_DIR", None)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--state-dir", str(tmp_path / "state"),
            "--cache-dir", str(tmp_path / "cache"),
            "--job-workers", "1",
            "--drain-timeout", "60",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )


def wait_for_port(proc, timeout=60.0):
    """Parse the bound port from the serve banner."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(
                f"serve exited early (rc={proc.poll()}) before binding"
            )
        if "listening on http://" in line:
            return int(line.rsplit(":", 1)[1])
    raise AssertionError("serve never printed its listening banner")


@pytest.mark.slow
class TestServeLifecycle:
    def test_submit_fetch_sigterm_drain(self, tmp_path):
        proc = popen_serve(tmp_path)
        try:
            port = wait_for_port(proc)
            client = ServiceClient(f"http://127.0.0.1:{port}")
            job = client.submit(
                dict(SPEC, max_quanta=200_000), client="e2e"
            )
            assert job["state"] in ("queued", "running", "done")
            settled = client.wait(job["id"], timeout=120.0)
            assert settled["state"] == "done"
            payload = client.result(job["id"])
            assert payload["result"]["workload"] == "bfs"
            assert payload["result"]["gteps"] > 0

            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=90.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30.0)
        assert proc.returncode == 0
        assert "drained: running finished" in out
        assert "0 queued job(s) persisted" in out

    def test_cli_run_seeds_the_service_cache(self, tmp_path):
        """Cross-front-end dedupe: `repro run` then submit = cache hit."""
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        run = subprocess.run(
            [
                sys.executable, "-m", "repro", "run",
                "--workload", "bfs", "--graph", "rmat:6:4",
                "--source", "0", "--scale", str(1.0 / 1024.0),
                "--cache-dir", str(tmp_path / "cache"),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert run.returncode == 0, run.stdout + run.stderr
        assert "cache miss" in run.stdout

        proc = popen_serve(tmp_path)
        try:
            port = wait_for_port(proc)
            client = ServiceClient(f"http://127.0.0.1:{port}")
            job = client.submit(SPEC, client="dedupe")
            assert job["state"] == "done"
            assert job["cached"] is True
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=90.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30.0)
        assert proc.returncode == 0
