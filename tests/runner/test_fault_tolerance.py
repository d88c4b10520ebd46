"""Fault isolation, retry/timeout, and resumable sweeps.

The injection mechanism is the runner's system-executor registry:
executors registered in the parent process are inherited by forked
workers, so a test can plug in an always-failing, sleeping, or
process-killing "system" without touching the runner internals.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.errors import ConfigError, SweepFailure
from repro.obs import FAULT_COUNTERS
from repro.runner.cache import spec_key
from repro.runner.execute import _run_nova, register_system
from repro.runner.fault import RetryPolicy, RunFailure
from repro.runner.spec import RunSpec
from repro.runner.sweep import SweepRunner
from repro.sim.config import scaled_config
from repro.graph.generators import rmat


@pytest.fixture(scope="module")
def graph():
    return rmat(9, 8, seed=5)


@pytest.fixture(scope="module")
def config():
    return scaled_config(num_gpns=1, scale=1.0 / 1024.0)


@pytest.fixture(autouse=True)
def _reset_fault_counters():
    FAULT_COUNTERS.reset()
    yield
    FAULT_COUNTERS.reset()


def nova_spec(graph, config, source=0, **overrides):
    return RunSpec("bfs", graph, config=config, source=source, **overrides)


#: no-retry, no-backoff policy: deterministic failures settle in one round.
FAST_POLICY = RetryPolicy(retries=0, backoff_seconds=0.0)


# ----------------------------------------------------------------------
# Injected executors (registered in the parent; workers inherit by fork)
# ----------------------------------------------------------------------


def _always_raise(spec):
    raise ValueError("poisoned spec (injected)")


def _sleep_forever(spec):
    time.sleep(60.0)
    raise AssertionError("watchdog never fired")


def _kill_worker(spec):
    os._exit(13)


_FLAKY_SENTINEL = {"path": None}


def _fail_once_then_run(spec):
    path = _FLAKY_SENTINEL["path"]
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("tripped")
        raise OSError("transient I/O hiccup (injected)")
    return _run_nova(spec)


register_system("test.poison", _always_raise)
register_system("test.sleeper", _sleep_forever)
register_system("test.killer", _kill_worker)
register_system("test.flaky", _fail_once_then_run)


# ----------------------------------------------------------------------
# Per-run isolation
# ----------------------------------------------------------------------


def test_poisoned_spec_does_not_abort_siblings(tmp_path, graph, config):
    runner = SweepRunner(
        workers=1, cache_dir=str(tmp_path), policy=FAST_POLICY
    )
    specs = [
        nova_spec(graph, config, source=0),
        nova_spec(graph, config, source=0, system="test.poison"),
        nova_spec(graph, config, source=1),
    ]
    results, stats = runner.run(specs, on_failure="return")
    assert (stats.total, stats.computed, stats.failed) == (3, 2, 1)
    assert results[0].workload == "bfs"
    assert results[2].workload == "bfs"
    failure = results[1]
    assert isinstance(failure, RunFailure)
    assert failure.kind == "error"
    assert failure.error_type == "ValueError"
    assert "poisoned" in failure.message
    assert failure.attempts == 1  # deterministic errors are never retried
    assert "bfs" in failure.describe()
    assert FAULT_COUNTERS.get("sweep.failures") == 1
    assert FAULT_COUNTERS.get("sweep.retries") == 0

    # Completed siblings were checkpointed: a rerun recomputes nothing.
    _, again = runner.run(specs, on_failure="return")
    assert (again.hits, again.computed, again.failed) == (2, 0, 1)


def test_fault_counters_are_per_sweep(tmp_path, graph, config):
    """Regression: the process-wide FAULT_COUNTERS registry must not
    leak between sweeps -- each SweepStats carries only its own delta.
    """
    runner = SweepRunner(
        workers=1, cache_dir=str(tmp_path), policy=FAST_POLICY
    )
    poisoned = [nova_spec(graph, config, source=0, system="test.poison")]

    _, first = runner.run(poisoned, on_failure="return")
    assert first.fault_counters["sweep.failures"] == 1

    # Second sweep in the same process: the global registry now reads 2,
    # but the per-sweep delta still reports exactly this sweep's one.
    _, second = runner.run(poisoned, on_failure="return")
    assert FAULT_COUNTERS.get("sweep.failures") == 2
    assert second.fault_counters["sweep.failures"] == 1

    # A clean sweep's delta carries no failures from its predecessors
    # (its own checkpoint flush is the only nonzero counter).
    _, clean = runner.run([nova_spec(graph, config, source=1)])
    assert "sweep.failures" not in clean.fault_counters
    assert clean.fault_counters == {"sweep.checkpoint_flushes": 1}


def test_on_failure_raise_completes_siblings_first(tmp_path, graph, config):
    runner = SweepRunner(
        workers=1, cache_dir=str(tmp_path), policy=FAST_POLICY
    )
    specs = [
        nova_spec(graph, config, source=0),
        nova_spec(graph, config, source=0, system="test.poison"),
    ]
    with pytest.raises(SweepFailure) as excinfo:
        runner.run(specs)
    assert len(excinfo.value.failures) == 1
    assert excinfo.value.stats.failed == 1
    assert "1 sweep run failed" in str(excinfo.value)

    # The sibling finished and stored before the raise.
    _, stats = runner.run([specs[0]])
    assert (stats.hits, stats.computed) == (1, 0)


def test_on_failure_mode_is_validated(graph, config):
    runner = SweepRunner(workers=1, use_cache=False, policy=FAST_POLICY)
    with pytest.raises(ConfigError, match="on_failure"):
        runner.run([nova_spec(graph, config)], on_failure="ignore")


# ----------------------------------------------------------------------
# Timeouts and retries
# ----------------------------------------------------------------------


@pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="needs SIGALRM watchdog"
)
def test_run_timeout_yields_timeout_failure(graph, config):
    policy = RetryPolicy(
        timeout_seconds=0.3, retries=0, backoff_seconds=0.0
    )
    runner = SweepRunner(workers=1, use_cache=False, policy=policy)
    start = time.perf_counter()
    results, stats = runner.run(
        [nova_spec(graph, config, system="test.sleeper")],
        on_failure="return",
    )
    assert time.perf_counter() - start < 30.0  # watchdog, not the sleep
    failure = results[0]
    assert isinstance(failure, RunFailure)
    assert failure.kind == "timeout"
    assert failure.error_type == "RunTimeoutError"
    assert stats.failed == 1
    assert FAULT_COUNTERS.get("sweep.timeouts") == 1


def test_transient_failure_is_retried_and_succeeds(tmp_path, graph, config):
    _FLAKY_SENTINEL["path"] = str(tmp_path / "flaky.sentinel")
    policy = RetryPolicy(retries=1, backoff_seconds=0.0)
    runner = SweepRunner(
        workers=1, cache_dir=str(tmp_path / "cache"), policy=policy
    )
    spec = nova_spec(graph, config, system="test.flaky")
    results, stats = runner.run([spec])
    assert (stats.computed, stats.failed, stats.retried) == (1, 0, 1)
    assert results[0].workload == "bfs"
    assert FAULT_COUNTERS.get("sweep.retries") == 1
    assert FAULT_COUNTERS.get("sweep.failures") == 0

    # The recovered run was checkpointed like any other.
    _, again = runner.run([spec])
    assert (again.hits, again.computed) == (1, 0)


def test_transient_failure_exhausts_retry_budget(tmp_path, graph, config):
    # The sentinel trips on attempt 1; with retries=0 there is no
    # attempt 2, so the transient failure surfaces as a RunFailure.
    _FLAKY_SENTINEL["path"] = str(tmp_path / "never-read.sentinel")
    os_error_spec = nova_spec(graph, config, system="test.flaky")
    runner = SweepRunner(workers=1, use_cache=False, policy=FAST_POLICY)
    results, stats = runner.run([os_error_spec], on_failure="return")
    assert stats.failed == 1
    assert results[0].error_type == "OSError"
    assert results[0].attempts == 1


# ----------------------------------------------------------------------
# Worker death
# ----------------------------------------------------------------------


def test_worker_death_is_isolated_from_siblings(tmp_path, graph, config):
    policy = RetryPolicy(retries=1, backoff_seconds=0.0)
    runner = SweepRunner(
        workers=2, cache_dir=str(tmp_path), policy=policy
    )
    specs = [
        nova_spec(graph, config, source=0),
        nova_spec(graph, config, source=0, system="test.killer"),
        nova_spec(graph, config, source=1),
        nova_spec(graph, config, source=2),
    ]
    results, stats = runner.run(specs, on_failure="return")
    assert stats.failed == 1
    assert stats.computed == 3
    failure = results[1]
    assert isinstance(failure, RunFailure)
    assert failure.kind == "worker-died"
    assert failure.attempts == 2  # worker death is transient: one retry
    for slot in (0, 2, 3):
        assert results[slot].workload == "bfs"
    assert FAULT_COUNTERS.get("sweep.worker_deaths") >= 2
    assert FAULT_COUNTERS.get("sweep.failures") == 1

    # Every surviving sibling landed in the cache despite the carnage.
    _, again = runner.run(specs, on_failure="return")
    assert (again.hits, again.computed, again.failed) == (3, 0, 1)


# ----------------------------------------------------------------------
# Resume
# ----------------------------------------------------------------------


def test_interrupted_sweep_resumes_with_zero_recomputation(
    tmp_path, graph, config
):
    # Stage 1: a sweep whose third key always fails stands in for an
    # interrupted sweep -- two keys complete and are cached, one is not.
    register_system("test.resumable", _always_raise)
    specs = [
        nova_spec(graph, config, source=0),
        nova_spec(graph, config, source=1),
        nova_spec(graph, config, source=0, system="test.resumable"),
    ]
    keys = [spec_key(spec) for spec in specs]
    runner = SweepRunner(
        workers=1, cache_dir=str(tmp_path), policy=FAST_POLICY
    )
    _, stats = runner.run(specs, on_failure="return")
    assert (stats.computed, stats.failed) == (2, 1)

    # Stage 2: "restart the process" -- a fresh runner, and the flaky
    # system now works.  Only the unfinished key recomputes; the
    # cache-hit counts prove zero recomputation.
    register_system("test.resumable", _run_nova)
    fresh = SweepRunner(
        workers=1, cache_dir=str(tmp_path), policy=FAST_POLICY
    )
    results, stats = fresh.run(specs, on_failure="return")
    assert (stats.hits, stats.computed, stats.failed) == (2, 1, 0)
    assert all(r.workload == "bfs" for r in results)
    assert all(fresh.cache.contains(key) for key in keys)

    # A third pass is all hits.
    _, final = fresh.run(specs, on_failure="return")
    assert (final.hits, final.computed) == (3, 0)


def test_sweep_id_ignores_order_and_duplicates():
    """``repro sweep``'s marker names the sweep's key set, not its cells."""
    from repro.commands.sweep import _sweep_marker

    keys = ["a" * 64, "b" * 64]
    marker = _sweep_marker("cache", keys)
    assert marker == _sweep_marker("cache", list(reversed(keys)))
    assert marker == _sweep_marker("cache", keys + [keys[0]])
    assert marker != _sweep_marker("cache", keys[:1])


# ----------------------------------------------------------------------
# Environment validation
# ----------------------------------------------------------------------


def test_invalid_workers_env_names_the_value(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "zebra")
    with pytest.raises(ConfigError, match="REPRO_WORKERS.*'zebra'"):
        SweepRunner(use_cache=False)
    monkeypatch.setenv("REPRO_WORKERS", "0")
    with pytest.raises(ConfigError, match="REPRO_WORKERS must be >= 1"):
        SweepRunner(use_cache=False)


def test_invalid_cache_max_bytes_env_fails_before_compute(
    monkeypatch, tmp_path, graph, config
):
    runner = SweepRunner(
        workers=1, cache_dir=str(tmp_path), policy=FAST_POLICY
    )
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "lots")
    with pytest.raises(ConfigError, match="REPRO_CACHE_MAX_BYTES.*'lots'"):
        runner.run([nova_spec(graph, config)])
    assert os.listdir(str(tmp_path)) == []  # validated before any run
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "-5")
    with pytest.raises(ConfigError, match="REPRO_CACHE_MAX_BYTES must be >= 0"):
        runner.run([nova_spec(graph, config)])


def test_invalid_retry_policy_env(monkeypatch):
    monkeypatch.setenv("REPRO_RUN_TIMEOUT", "-1")
    with pytest.raises(ConfigError, match="REPRO_RUN_TIMEOUT"):
        RetryPolicy.from_env()
    monkeypatch.setenv("REPRO_RUN_TIMEOUT", "soon")
    with pytest.raises(ConfigError, match="REPRO_RUN_TIMEOUT.*'soon'"):
        RetryPolicy.from_env()
    monkeypatch.delenv("REPRO_RUN_TIMEOUT")
    monkeypatch.setenv("REPRO_RUN_RETRIES", "-2")
    with pytest.raises(ConfigError, match="REPRO_RUN_RETRIES"):
        RetryPolicy.from_env()
    monkeypatch.delenv("REPRO_RUN_RETRIES")


def test_retry_policy_validation_and_backoff():
    with pytest.raises(ConfigError, match="timeout_seconds"):
        RetryPolicy(timeout_seconds=0.0)
    with pytest.raises(ConfigError, match="retries"):
        RetryPolicy(retries=-1)
    policy = RetryPolicy(retries=3, backoff_seconds=1.0)
    assert policy.allows_retry(1)
    assert policy.allows_retry(3)
    assert not policy.allows_retry(4)
    assert policy.backoff_delay(0) == 0.0
    assert policy.backoff_delay(1) == 1.0
    assert policy.backoff_delay(2) == 2.0
    assert policy.backoff_delay(3) == 4.0
    assert policy.backoff_delay(6) == 30.0  # capped


def test_unknown_system_is_a_config_error(graph, config):
    from repro.runner.execute import execute_spec

    with pytest.raises(ConfigError, match="unknown system 'no-such'"):
        execute_spec(nova_spec(graph, config, system="no-such"))
