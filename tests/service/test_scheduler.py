"""Scheduler: backpressure, cache dedupe, ordering, drain, recovery.

No pytest-asyncio in the toolchain, so every test drives its own loop
with ``asyncio.run`` from a synchronous test function.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.errors import (
    JobSpecError,
    JobStateError,
    QueueFullError,
    ServiceUnavailableError,
)
from repro.obs.counters import FAULT_COUNTERS
from repro.runner.fault import RunFailure
from repro.runner.sweep import SweepRunner
from repro.service.scheduler import JobScheduler
from repro.service.store import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    JobSpec,
    JobStore,
)


def make_spec(**overrides):
    defaults = dict(
        workload="bfs",
        graph="rmat:6:4",
        source=0,
        scale=1.0 / 1024.0,
        max_quanta=200_000,
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


def make_scheduler(tmp_path, **kwargs):
    store = JobStore(str(tmp_path / "state"))
    runner = SweepRunner(workers=1, cache_dir=str(tmp_path / "cache"))
    return JobScheduler(store, runner=runner, **kwargs)


async def wait_terminal(sched, job_id, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = sched.store.get(job_id)
        if job.terminal:
            return job
        await asyncio.sleep(0.02)
    raise AssertionError(f"job {job_id} never settled")


class _FakeDone:
    """Stands in for a RunResult: anything not a RunFailure means done."""


def patch_runs(sched, order=None, outcome=None, gate=None, started=None):
    """Replace the blocking run with an instant (or gated) fake."""

    def fake(job):
        if started is not None:
            started.set()
        if gate is not None:
            assert gate.wait(30.0)
        if order is not None:
            order.append(job.id)
        return outcome if outcome is not None else _FakeDone()

    sched._run_blocking = fake


class TestBackpressure:
    def test_queue_full_is_structured(self, tmp_path):
        sched = make_scheduler(tmp_path, max_queue_depth=1)

        async def main():
            before = FAULT_COUNTERS.snapshot()
            await sched.submit(make_spec(source=0))  # fills the queue
            with pytest.raises(QueueFullError) as err:
                await sched.submit(make_spec(source=1))
            assert err.value.depth == 1
            assert err.value.limit == 1
            assert err.value.retry_after_seconds >= 1.0
            delta = FAULT_COUNTERS.delta_since(before)
            assert delta.get("service.rejected") == 1

        asyncio.run(main())

    def test_draining_refuses_submissions(self, tmp_path):
        sched = make_scheduler(tmp_path)
        sched.draining = True

        async def main():
            with pytest.raises(ServiceUnavailableError):
                await sched.submit(make_spec())

        asyncio.run(main())

    def test_bad_spec_rejected_at_admission(self, tmp_path):
        sched = make_scheduler(tmp_path)

        async def main():
            with pytest.raises(JobSpecError, match="admission"):
                await sched.submit(make_spec(graph="no-such-graph:fmt"))
            (job,) = sched.store.jobs()
            assert job.state == FAILED
            assert job.error_kind == "admission"

        asyncio.run(main())


class TestExecutionAndDedupe:
    def test_run_then_duplicate_submission_dedupes(self, tmp_path):
        """The acceptance path: second identical submit costs no compute."""
        sched = make_scheduler(tmp_path, job_workers=1)

        async def main():
            await sched.start()
            job = await sched.submit(make_spec(), client="alice")
            settled = await wait_terminal(sched, job.id)
            assert settled.state == DONE
            assert not settled.cached
            assert settled.key is not None
            assert sched.runner.cache.load(settled.key) is not None

            before = FAULT_COUNTERS.snapshot()
            dup = await sched.submit(make_spec(), client="bob")
            assert dup.id != job.id
            assert dup.state == DONE
            assert dup.cached
            assert dup.key == settled.key
            delta = FAULT_COUNTERS.delta_since(before)
            assert delta.get("service.cache_hits") == 1
            assert not delta.get("service.dispatched")
            await sched.drain(timeout=10.0)

        asyncio.run(main())

    def test_failure_records_structured_error(self, tmp_path):
        sched = make_scheduler(tmp_path, job_workers=1)
        patch_runs(
            sched,
            outcome=RunFailure(
                key="",
                spec=None,
                kind="error",
                error_type="BoomError",
                message="synthetic failure",
            ),
        )

        async def main():
            await sched.start()
            job = await sched.submit(make_spec())
            settled = await wait_terminal(sched, job.id)
            assert settled.state == FAILED
            assert settled.error_type == "BoomError"
            assert settled.error_message == "synthetic failure"
            await sched.drain(timeout=10.0)

        asyncio.run(main())


class TestOrdering:
    def test_priority_then_fairness_then_fifo(self, tmp_path):
        sched = make_scheduler(tmp_path, job_workers=1)
        order = []
        patch_runs(sched, order=order)

        async def main():
            # Submit before start() so the whole queue is ranked at once.
            a1 = await sched.submit(make_spec(source=1), client="alice")
            a2 = await sched.submit(make_spec(source=2), client="alice")
            b1 = await sched.submit(make_spec(source=3), client="bob")
            hi = await sched.submit(
                make_spec(source=4), client="alice", priority=5
            )
            await sched.start()
            for job in (a1, a2, b1, hi):
                await wait_terminal(sched, job.id)
            await sched.drain(timeout=10.0)
            # Priority wins outright; then bob (fewer dispatches than
            # alice) beats alice's earlier submission; then FIFO.
            assert order == [hi.id, b1.id, a1.id, a2.id]
            fairness = sched.fairness_snapshot()
            assert fairness == {"alice": 3, "bob": 1}

        asyncio.run(main())


class TestCancel:
    def test_cancel_queued_then_refuse_settled(self, tmp_path):
        sched = make_scheduler(tmp_path)

        async def main():
            job = await sched.submit(make_spec())
            assert job.state == QUEUED
            cancelled = await sched.cancel(job.id)
            assert cancelled.state == CANCELLED
            assert sched.queue_depth == 0
            with pytest.raises(JobStateError):
                await sched.cancel(job.id)

        asyncio.run(main())


class TestEvents:
    def test_submission_trail_and_terminal_fast_path(self, tmp_path):
        sched = make_scheduler(tmp_path)

        async def main():
            job = await sched.submit(make_spec())
            events, nxt = await sched.events_since(job.id, 0, timeout=0.0)
            states = [e["state"] for e in events if e["type"] == "state"]
            assert states == ["submitted", "queued"]
            assert nxt == len(events)
            await sched.cancel(job.id)
            # Terminal + fully consumed: the long-poll returns at once.
            start = time.monotonic()
            fresh, _ = await sched.events_since(job.id, nxt + 1, timeout=30.0)
            assert fresh == []
            assert time.monotonic() - start < 5.0

        asyncio.run(main())


class TestDrainAndResume:
    def test_drain_finishes_running_keeps_queued(self, tmp_path):
        sched = make_scheduler(tmp_path, job_workers=1)
        started = threading.Event()
        gate = threading.Event()
        patch_runs(sched, gate=gate, started=started)

        async def main():
            await sched.start()
            j1 = await sched.submit(make_spec(source=1))
            j2 = await sched.submit(make_spec(source=2))
            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, started.wait, 30.0)
            drain_task = asyncio.create_task(sched.drain(timeout=30.0))
            await asyncio.sleep(0.05)
            gate.set()  # let the in-flight job finish
            summary = await drain_task
            assert summary["drained"] == 1
            assert summary["running"] == 0
            assert summary["queued"] == 1
            assert sched.store.get(j1.id).state == DONE
            assert sched.store.get(j2.id).state == QUEUED
            return j2.id

        queued_id = asyncio.run(main())

        # A fresh scheduler over the same state dir resumes the survivor.
        sched2 = make_scheduler(tmp_path, job_workers=1)
        patch_runs(sched2)

        async def resume():
            resumed = await sched2.start()
            assert resumed == 1
            settled = await wait_terminal(sched2, queued_id)
            assert settled.state == DONE
            await sched2.drain(timeout=10.0)

        asyncio.run(resume())
