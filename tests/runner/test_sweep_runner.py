"""SweepRunner: cache-first execution, dedupe, and process fan-out."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metrics import RunResult
from repro.core.system import NovaSystem
from repro.graph.generators import rmat
from repro.runner.spec import RunSpec
from repro.runner.sweep import SweepRunner
from repro.sim.config import scaled_config


@pytest.fixture(scope="module")
def graph():
    return rmat(9, 8, seed=5)


@pytest.fixture(scope="module")
def config():
    return scaled_config(num_gpns=1, scale=1.0 / 1024.0)


def specs_for(graph, config, sources=(0, 1, 2)):
    return [
        RunSpec("bfs", graph, config=config, source=s) for s in sources
    ]


def assert_same_run(a: RunResult, b: RunResult) -> None:
    assert a.elapsed_seconds == b.elapsed_seconds
    assert a.quanta == b.quanta
    assert np.array_equal(a.result, b.result)
    assert a.traffic == b.traffic


def test_second_invocation_recomputes_nothing(tmp_path, graph, config):
    runner = SweepRunner(workers=1, cache_dir=str(tmp_path))
    specs = specs_for(graph, config)
    first_results, first = runner.run(specs)
    assert (first.total, first.hits, first.computed) == (3, 0, 3)

    second_results, second = runner.run(specs)
    assert (second.total, second.hits, second.computed) == (3, 3, 0)
    for a, b in zip(first_results, second_results):
        assert_same_run(a, b)

    # A fresh runner on the same cache dir also hits.
    _, third = SweepRunner(workers=1, cache_dir=str(tmp_path)).run(specs)
    assert (third.hits, third.computed) == (3, 0)


def test_identical_specs_compute_once(tmp_path, graph, config):
    runner = SweepRunner(workers=1, cache_dir=str(tmp_path))
    specs = specs_for(graph, config, sources=(0, 0, 1, 0))
    results, stats = runner.run(specs)
    assert (stats.total, stats.computed) == (4, 2)
    # Duplicate slots are accounted as deduped, not silently absorbed:
    # hits/computed/failed partition unique keys, deduped the rest.
    assert stats.deduped == 2
    assert stats.total == stats.hits + stats.computed + stats.failed + stats.deduped
    assert "2 deduped" in str(stats)
    assert_same_run(results[0], results[1])
    assert_same_run(results[0], results[3])

    # A second pass hits both unique keys and still reports the dupes.
    _, again = runner.run(specs)
    assert (again.hits, again.computed, again.deduped) == (2, 0, 2)
    assert again.total == again.hits + again.computed + again.deduped

    # Dedupe holds with caching off, too.
    uncached = SweepRunner(workers=1, use_cache=False)
    assert uncached.cache is None
    _, stats = uncached.run(specs)
    assert stats.computed == 2
    assert stats.hits == 0
    assert stats.deduped == 2


def test_parallel_matches_inline(tmp_path, graph, config):
    specs = specs_for(graph, config)
    inline, _ = SweepRunner(workers=1, use_cache=False).run(specs)
    forked, stats = SweepRunner(workers=2, use_cache=False).run(specs)
    assert stats.computed == 3
    for a, b in zip(inline, forked):
        assert_same_run(a, b)


def test_runner_results_match_direct_system_run(tmp_path, graph, config):
    runner = SweepRunner(workers=1, cache_dir=str(tmp_path))
    run = runner.run_one(RunSpec("bfs", graph, config=config, source=0))
    direct = NovaSystem(config, graph, placement="random").run("bfs", source=0)
    assert_same_run(run, direct)

    # And the cached copy is byte-equal to the computed one.
    cached = runner.run_one(RunSpec("bfs", graph, config=config, source=0))
    assert_same_run(run, cached)


def test_results_keep_input_order(tmp_path, graph, config):
    runner = SweepRunner(workers=1, cache_dir=str(tmp_path))
    specs = [
        RunSpec("pr", graph, config=config, workload_kwargs={"max_supersteps": 2}),
        RunSpec("bfs", graph, config=config, source=0),
    ]
    results, _ = runner.run(specs)
    assert results[0].workload == "pr"
    assert results[1].workload == "bfs"
