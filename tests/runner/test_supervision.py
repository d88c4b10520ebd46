"""Supervised execution: the deadline and crash isolation hold wherever
the runner is driven from, and a forked child never inherits a held lock.

``repro serve`` drives a ``SweepRunner(workers=1)`` from executor
threads, so these checks run the runner the same way: off the main
thread and with a single child.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.graph import store
from repro.graph.generators import rmat
from repro.obs import FAULT_COUNTERS, tracing
from repro.runner.execute import _run_nova, register_system
from repro.runner.fault import RetryPolicy, RunFailure
from repro.runner.spec import GraphSpec, RunSpec
from repro.runner.sweep import SweepRunner
from repro.sim.config import scaled_config


@pytest.fixture(scope="module")
def graph():
    return rmat(8, 4, seed=5)


@pytest.fixture(scope="module")
def config():
    return scaled_config(num_gpns=1, scale=1.0 / 1024.0)


@pytest.fixture(autouse=True)
def _reset_fault_counters():
    FAULT_COUNTERS.reset()
    yield
    FAULT_COUNTERS.reset()


# ----------------------------------------------------------------------
# Injected executors (registered in the parent; children inherit by fork)
# ----------------------------------------------------------------------


def _sleep_past_deadline(spec):
    time.sleep(0.15)
    return _run_nova(spec)


def _exit_13(spec):
    os._exit(13)


def _touch_every_lock(spec):
    """Take each lock a run's child can reach: a counter, a trace span,
    and the store's pin set (a build publishes, then prunes)."""
    FAULT_COUNTERS.increment("test.fork_safety")
    with tracing.trace_span("test.fork_safety"):
        GraphSpec("rmat:6:4", seed=1000 + spec.source).build()
    return _run_nova(spec)


register_system("test.sleep-past-deadline", _sleep_past_deadline)
register_system("test.exit-13", _exit_13)
register_system("test.touch-every-lock", _touch_every_lock)


def _run_in_thread(runner, specs):
    """``runner.run`` from a non-main thread, as a service job runs."""
    out = {}

    def drive():
        out["results"], out["stats"] = runner.run(specs, on_failure="return")

    thread = threading.Thread(target=drive)
    thread.start()
    thread.join(timeout=60.0)
    assert not thread.is_alive(), "runner hung"
    return out["results"], out["stats"]


# ----------------------------------------------------------------------
# The deadline and crash isolation, with one child
# ----------------------------------------------------------------------


def test_timeout_fires_off_the_main_thread(graph, config):
    """Regression: off the main thread the old in-process watchdog did
    nothing, so a 0.05 s deadline returned a full result after 0.15 s.
    """
    policy = RetryPolicy(timeout_seconds=0.05, retries=0)
    runner = SweepRunner(workers=1, use_cache=False, policy=policy)
    spec = RunSpec("bfs", graph, config=config, source=0,
                   system="test.sleep-past-deadline")
    results, stats = _run_in_thread(runner, [spec])
    failure = results[0]
    assert isinstance(failure, RunFailure)
    assert failure.kind == "timeout"
    assert failure.error_type == "RunTimeoutError"
    assert stats.failed == 1
    assert FAULT_COUNTERS.get("sweep.timeouts") == 1


def test_exit_at_one_worker_fails_alone(graph, config):
    """Regression: an ``os._exit(13)`` spec at ``workers=1`` used to run
    inline and take the calling process down with exit code 13."""
    runner = SweepRunner(workers=1, use_cache=False,
                         policy=RetryPolicy(retries=0))
    specs = [
        RunSpec("bfs", graph, config=config, source=0, system="test.exit-13"),
        RunSpec("bfs", graph, config=config, source=1),
    ]
    results, stats = runner.run(specs, on_failure="return")
    failure = results[0]
    assert isinstance(failure, RunFailure)
    assert failure.kind == "worker-died"
    assert "exit code 13" in failure.message
    assert results[1].workload == "bfs"  # a fresh child ran the sibling
    assert (stats.computed, stats.failed) == (1, 1)
    assert FAULT_COUNTERS.get("sweep.worker_deaths") == 1


# ----------------------------------------------------------------------
# Fork safety of the program's locks
# ----------------------------------------------------------------------

#: While armed, every fork happens with another thread holding the locks.
_HOLD = {"armed": False, "release": None}


def _child_path_locks():
    return [FAULT_COUNTERS._lock, tracing._lock, store._PROTECTED_LOCK]


def _take_locks_before_fork():
    if not _HOLD["armed"]:
        return
    taken, release = threading.Event(), threading.Event()

    def hold():
        locks = _child_path_locks()
        for lock in locks:
            lock.acquire()
        taken.set()
        release.wait(timeout=30.0)
        for lock in reversed(locks):
            lock.release()

    threading.Thread(target=hold, daemon=True).start()
    taken.wait(timeout=30.0)
    _HOLD["release"] = release


def _release_locks_after_fork():
    release, _HOLD["release"] = _HOLD["release"], None
    if release is not None:
        release.set()


os.register_at_fork(
    before=_take_locks_before_fork,
    after_in_parent=_release_locks_after_fork,
)


def test_child_never_inherits_a_held_lock(tmp_path, monkeypatch, graph,
                                          config):
    """Regression: a child forked while another thread held a counter,
    trace or store lock hung at its first use of that lock until the
    deadline killed it."""
    monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "trace.jsonl"))
    monkeypatch.setenv("REPRO_GRAPH_STORE_MAX_BYTES", str(1 << 30))
    tracing.refresh()
    policy = RetryPolicy(timeout_seconds=10.0, retries=0)
    runner = SweepRunner(workers=2, use_cache=False, policy=policy)
    specs = [
        RunSpec("bfs", graph, config=config, source=source,
                system="test.touch-every-lock")
        for source in (0, 1)
    ]
    _HOLD["armed"] = True
    try:
        start = time.monotonic()
        results, _ = runner.run(specs, on_failure="return")
        seconds = time.monotonic() - start
    finally:
        _HOLD["armed"] = False
    assert [type(r).__name__ for r in results] == ["RunResult", "RunResult"]
    assert seconds < 2.0
    with open(tmp_path / "trace.jsonl", encoding="utf-8") as f:
        assert sum('"test.fork_safety"' in line for line in f) == 2
