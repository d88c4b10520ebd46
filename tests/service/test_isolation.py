"""A live service survives a hanging job, a crashing job, and a SIGTERM
or SIGKILL sent to a job's child.

Each test boots an in-process :class:`ReproService` the way ``repro
serve`` does -- ``serve_forever``, with its SIGTERM/SIGINT drain
handlers installed -- on an ephemeral port, with a runner whose
deadline is short.  A scripted ``nova`` executor hangs or exits on
chosen sources.  After each case ``/healthz`` must answer ``ok`` and a
normal job must still settle ``done``.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import time

from repro.runner.execute import _run_nova, register_system
from repro.runner.fault import RetryPolicy
from repro.runner.sweep import SweepRunner
from repro.service.client import ServiceClient
from repro.service.http import ReproService

#: Sources the scripted executor hangs on or exits on; others run.
HANG, EXIT = 1, 2


def _scripted_nova(spec):
    if spec.source == HANG:
        time.sleep(10.0)
    elif spec.source == EXIT:
        os._exit(13)
    return _run_nova(spec)


def _hangs_on_first_attempt(marker):
    """A ``nova`` executor that hangs on HANG in the attempt that creates
    ``marker`` and runs normally in any later attempt."""

    def execute(spec):
        if spec.source == HANG:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                time.sleep(10.0)
        return _run_nova(spec)

    return execute


def make_spec(source):
    return dict(
        workload="bfs",
        graph="rmat:6:4",
        source=source,
        scale=1.0 / 1024.0,
        max_quanta=200_000,
    )


async def call(fn, *args, **kwargs):
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(None, lambda: fn(*args, **kwargs))


def serve(tmp_path, body, timeout, retries=0, executor=_scripted_nova):
    """Boot a service as ``repro serve`` does, run ``await body(client)``,
    check the service still serves, then drain it."""

    async def main():
        runner = SweepRunner(
            workers=1,
            cache_dir=str(tmp_path / "cache"),
            policy=RetryPolicy(
                timeout_seconds=timeout, retries=retries,
                backoff_seconds=0.0,
            ),
        )
        svc = ReproService(str(tmp_path / "state"), runner=runner)
        ready = asyncio.get_running_loop().create_future()
        server = asyncio.ensure_future(
            svc.serve_forever(port=0, on_ready=ready.set_result)
        )
        port = await asyncio.wait_for(ready, 30.0)
        client = ServiceClient(f"http://127.0.0.1:{port}")
        try:
            await body(client)
            assert not server.done(), "the service drained"
            health = await call(client.health)
            assert health["status"] == "ok"
            job = await call(client.submit, make_spec(0))
            job = await call(client.wait, job["id"], timeout=60.0)
            assert job["state"] == "done"
        finally:
            svc.shutdown()
            await server

    register_system("nova", executor)
    try:
        asyncio.run(main())
    finally:
        register_system("nova", _run_nova)


def test_hanging_job_times_out(tmp_path):
    async def body(client):
        job = await call(client.submit, make_spec(HANG))
        job = await call(client.wait, job["id"], timeout=60.0)
        assert job["state"] == "failed"
        assert job["error_kind"] == "timeout"

    serve(tmp_path, body, timeout=0.5)


def test_crashing_job_fails_alone(tmp_path):
    async def body(client):
        job = await call(client.submit, make_spec(EXIT))
        job = await call(client.wait, job["id"], timeout=60.0)
        assert job["state"] == "failed"
        assert job["error_kind"] == "worker-died"

    serve(tmp_path, body, timeout=5.0)


def test_sigterm_to_a_job_child_does_not_drain(tmp_path):
    """Regression: the child inherited asyncio's wakeup fd, so a SIGTERM
    sent to it ran the service's own drain handler."""

    async def body(client):
        job = await call(client.submit, make_spec(HANG))
        children = []
        deadline = time.monotonic() + 4.0
        while not children and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
            children = multiprocessing.active_children()
        assert children, "the job did not run in a child process"
        for child in children:
            os.kill(child.pid, signal.SIGTERM)
        job = await call(client.wait, job["id"], timeout=60.0)
        assert job["state"] == "failed"
        assert job["error_kind"] == "worker-died"
        assert "SIGTERM" in job["error_message"]

    serve(tmp_path, body, timeout=5.0)


def sigkill_running_child(tmp_path, retries):
    """Submit a job whose first attempt hangs, SIGKILL its child while it
    hangs, and return the settled job record."""
    marker = tmp_path / "first-attempt"
    settled = {}

    async def body(client):
        job = await call(client.submit, make_spec(HANG))
        deadline = time.monotonic() + 10.0
        while not marker.exists() and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        children = multiprocessing.active_children()
        assert marker.exists() and children, "the job's child never ran"
        for child in children:
            os.kill(child.pid, signal.SIGKILL)
        settled.update(await call(client.wait, job["id"], timeout=60.0))

    serve(tmp_path, body, timeout=5.0, retries=retries,
          executor=_hangs_on_first_attempt(str(marker)))
    return settled


def test_sigkilled_child_fails_its_job_alone(tmp_path):
    job = sigkill_running_child(tmp_path, retries=0)
    assert job["state"] == "failed"
    assert job["error_kind"] == "worker-died"
    assert "SIGKILL" in job["error_message"]


def test_sigkilled_child_is_retried_to_done(tmp_path):
    job = sigkill_running_child(tmp_path, retries=1)
    assert job["state"] == "done"
