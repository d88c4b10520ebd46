"""Sweeps over a batch of cells on the supervised run path.

Every computed cell runs in a forked child, whatever the worker count.
The contract under test: results and cache keys are identical for one
and two children, every child stores its own results, and a failing or
dying cell fails alone -- a death charges only the cell its child was
running.  Also here: store-mapped graphs carrying their digest, and a
sweep's deadline leaving the host's own ``ITIMER_REAL`` alone.
"""

from __future__ import annotations

import signal
import time

import numpy as np
import pytest

from repro.obs import FAULT_COUNTERS
from repro.runner.cache import graph_digest, spec_key
from repro.runner.fault import RetryPolicy, RunFailure
from repro.runner.spec import GraphSpec, RunSpec, _GRAPH_MEMO
from repro.runner.sweep import SweepRunner
from repro.graph.generators import rmat
from repro.sim.config import scaled_config

# The killer/poison injected systems are registered at import time by
# the fault-tolerance suite; reuse them rather than redefining.
from tests.runner.test_fault_tolerance import (  # noqa: F401
    FAST_POLICY,
    _kill_worker,
    nova_spec,
)


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


# ----------------------------------------------------------------------
# Parity: one child == two children, bit for bit
# ----------------------------------------------------------------------


def _parity_specs(config):
    specs = []
    for seed in (11, 12):
        gspec = GraphSpec("rmat:9:8", seed=seed)
        for source in range(3):
            specs.append(
                RunSpec("bfs", gspec, config=config, source=source)
            )
    return specs


@pytest.mark.slow
def test_one_and_two_workers_match_bit_for_bit(tmp_path, config):
    specs = _parity_specs(config)
    keys = [spec_key(spec) for spec in specs]

    one = SweepRunner(
        workers=1, cache_dir=str(tmp_path / "one"), policy=FAST_POLICY
    )
    one_results, one_stats = one.run(specs)

    two = SweepRunner(
        workers=2, cache_dir=str(tmp_path / "two"), policy=FAST_POLICY
    )
    two_results, two_stats = two.run(specs)

    assert (two_stats.total, two_stats.computed, two_stats.failed) == (
        one_stats.total, one_stats.computed, one_stats.failed
    )
    for a, b in zip(one_results, two_results):
        assert a.elapsed_seconds == b.elapsed_seconds
        assert a.quanta == b.quanta
        assert np.array_equal(a.result, b.result)
        assert a.breakdown == b.breakdown
        assert a.traffic == b.traffic
        assert a.utilization == b.utilization

    # Every cell was stored by the child that ran it (the parent counts
    # the flush without storing again): a rerun is pure hits.
    for runner in (one, two):
        assert all(runner.cache.load(key) is not None for key in keys)
        _, again = runner.run(specs)
        assert (again.hits, again.computed) == (len(specs), 0)


# ----------------------------------------------------------------------
# Fault isolation: a failing or dying cell fails alone
# ----------------------------------------------------------------------


def test_batched_cell_failure_is_isolated(tmp_path, config):
    gspec = GraphSpec("rmat:9:8", seed=11)
    specs = [
        RunSpec("bfs", gspec, config=config, source=0),
        RunSpec(
            "bfs", gspec, config=config, source=0, system="test.poison"
        ),
        RunSpec("bfs", gspec, config=config, source=1),
    ]
    runner = SweepRunner(
        workers=2, cache_dir=str(tmp_path), policy=FAST_POLICY
    )
    results, stats = runner.run(specs, on_failure="return")
    assert (stats.computed, stats.failed) == (2, 1)
    assert isinstance(results[1], RunFailure)
    assert results[1].kind == "error"
    assert results[1].error_type == "ValueError"
    assert results[0].workload == "bfs"
    assert results[2].workload == "bfs"


@pytest.mark.slow
def test_batched_worker_death_recovers_flushed_prefix(tmp_path, config):
    """The cells a child finished before it died stay stored."""
    gspec = GraphSpec("rmat:9:8", seed=11)
    specs = [RunSpec("bfs", gspec, config=config, source=s) for s in range(6)]
    specs[1] = RunSpec(
        "bfs", gspec, config=config, source=1, system="test.killer"
    )
    keys = [spec_key(spec) for spec in specs]
    policy = RetryPolicy(retries=1, backoff_seconds=0.0)
    runner = SweepRunner(workers=2, cache_dir=str(tmp_path), policy=policy)
    results, stats = runner.run(specs, on_failure="return")
    assert (stats.computed, stats.failed) == (5, 1)
    failure = results[1]
    assert isinstance(failure, RunFailure)
    assert failure.kind == "worker-died"
    assert failure.attempts == 2  # one retry
    for slot in (0, 2, 3, 4, 5):
        assert results[slot].workload == "bfs"
        assert runner.cache.load(keys[slot]) is not None
    _, again = runner.run(specs, on_failure="return")
    assert (again.hits, again.computed, again.failed) == (5, 0, 1)


@pytest.mark.slow
def test_pool_collapse_charges_only_the_victim(tmp_path, graph, config):
    """Regression: one worker death used to mark every in-flight sibling
    ``worker_died`` and burn their retry budget.  A death charges only
    the cell its child was running; the siblings complete and store.
    """
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
    assert (stats.computed, stats.failed) == (3, 1)
    assert isinstance(results[1], RunFailure)
    assert results[1].kind == "worker-died"

    # The killer dies once per attempt -- and nobody else is ever
    # declared dead.
    assert FAULT_COUNTERS.get("sweep.worker_deaths") == 2
    # Exactly one retry was spent, by the victim.
    assert FAULT_COUNTERS.get("sweep.retries") == 1
    assert stats.retried == 1
    for slot in (0, 2, 3):
        assert runner.cache.load(spec_key(specs[slot])) is not None


# ----------------------------------------------------------------------
# Store-mapped graphs carry their digest
# ----------------------------------------------------------------------


def test_store_artifacts_carry_their_digest(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_GRAPH_STORE_DIR", str(tmp_path / "graphs"))
    _GRAPH_MEMO.clear()

    gspec = GraphSpec("rmat:9:8", seed=3)
    stored = gspec.build()  # store-backed: the manifest recorded the digest
    in_memory = rmat(9, 8, seed=3)

    # The recorded digest is byte-identical to hashing the same graph
    # built in memory -- cache keys cannot drift.
    digest = graph_digest(in_memory)
    assert graph_digest(stored) == digest == gspec.facts().csr_digest
    spec = RunSpec("bfs", gspec, source=0)
    assert spec_key(spec) == spec_key(
        RunSpec("bfs", in_memory, source=0)
    )

    # The mapped graph answers from the record; an in-memory graph
    # (nothing pins its bytes) is hashed every time.
    import repro.graph.csr as csr

    def no_hashing(*arrays):
        raise AssertionError("hashed the arrays")

    monkeypatch.setattr(csr, "csr_digest", no_hashing)
    assert graph_digest(stored) == digest
    with pytest.raises(AssertionError, match="hashed the arrays"):
        graph_digest(in_memory)
    _GRAPH_MEMO.clear()


# ----------------------------------------------------------------------
# The host's own ITIMER_REAL
# ----------------------------------------------------------------------

#: A sweep with a deadline: the parent enforces it by killing children,
#: so it never arms, disarms or re-arms the caller's interval timer.
DEADLINE_POLICY = RetryPolicy(
    timeout_seconds=30.0, retries=0, backoff_seconds=0.0
)


@pytest.mark.skipif(
    not hasattr(signal, "setitimer"), reason="needs ITIMER_REAL"
)
def test_timeout_restores_preexisting_itimer(graph, config):
    """Regression: the old in-process watchdog disarmed any ITIMER_REAL
    the host application had armed.  A sweep must leave it running.
    """
    fired = []
    previous = signal.signal(signal.SIGALRM, lambda *a: fired.append(1))
    try:
        signal.setitimer(signal.ITIMER_REAL, 60.0)
        armed = time.monotonic()
        runner = SweepRunner(
            workers=1, use_cache=False, policy=DEADLINE_POLICY
        )
        assert runner.run_one(nova_spec(graph, config)).workload == "bfs"
        remaining, interval = signal.getitimer(signal.ITIMER_REAL)
        assert 0.0 < remaining <= 60.0 - (time.monotonic() - armed) + 0.01
        assert interval == 0.0
        assert not fired
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(
    not hasattr(signal, "setitimer"), reason="needs ITIMER_REAL"
)
def test_timeout_leaves_timer_disarmed_when_none_existed(graph, config):
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    runner = SweepRunner(workers=1, use_cache=False, policy=DEADLINE_POLICY)
    runner.run_one(nova_spec(graph, config, source=1))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
