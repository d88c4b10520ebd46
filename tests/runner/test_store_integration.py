"""GraphStore integration: sweeps build graphs exactly once, concurrent
processes race cleanly, and the per-process memo stays bounded."""

from __future__ import annotations

import multiprocessing
import os
import time
import weakref

import numpy as np
import pytest

from repro.graph.store import GraphStore, spec_digest
from repro.obs.counters import FAULT_COUNTERS
from repro.runner.spec import GraphSpec, RunSpec, _GRAPH_MEMO
from repro.runner.sweep import SweepRunner
from repro.sim.config import scaled_config


@pytest.fixture(autouse=True)
def isolated_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_GRAPH_STORE_DIR", str(tmp_path / "graphs"))
    _GRAPH_MEMO.clear()
    yield tmp_path / "graphs"
    _GRAPH_MEMO.clear()


def _sweep_specs(n: int = 4):
    graph = GraphSpec("rmat:9:8", seed=11)
    config = scaled_config(num_gpns=2, scale=1.0 / 1024.0)
    return [
        RunSpec(workload="bfs", graph=graph, config=config, source=s)
        for s in range(n)
    ]


def _store_delta(base):
    return {
        name: count
        for name, count in FAULT_COUNTERS.delta_since(base).items()
        if name.startswith("graph_store.")
    }


@pytest.mark.slow
def test_sweep_builds_graph_exactly_once(tmp_path):
    """N same-graph cells: one build on a cold store, zero on a warm one."""
    specs = _sweep_specs(4)

    base = FAULT_COUNTERS.snapshot()
    runner = SweepRunner(workers=2, cache_dir=str(tmp_path / "cache-a"))
    cold_results, _ = runner.run(specs)
    cold = _store_delta(base)
    assert cold.get("graph_store.builds") == 1
    assert cold.get("graph_store.misses") == 1

    # A fresh process would have an empty memo; simulate that, keep the
    # on-disk store warm, and use a fresh run cache so runs recompute.
    _GRAPH_MEMO.clear()
    base = FAULT_COUNTERS.snapshot()
    runner = SweepRunner(workers=2, cache_dir=str(tmp_path / "cache-b"))
    warm_results, _ = runner.run(specs)
    warm = _store_delta(base)
    assert "graph_store.builds" not in warm
    assert warm.get("graph_store.hits", 0) >= 1

    for a, b in zip(cold_results, warm_results):
        assert np.array_equal(a.result, b.result)
        assert a.elapsed_seconds == b.elapsed_seconds


def _racing_builder(store_dir, start, out):
    """Child process: race to build one spec through the store."""
    os.environ["REPRO_GRAPH_STORE_DIR"] = store_dir
    from repro.graph.store import GraphStore
    from repro.obs.counters import FAULT_COUNTERS
    from repro.runner.spec import GraphSpec

    spec = GraphSpec("rmat:9:8", seed=23)

    def slow_build():
        time.sleep(0.3)  # widen the race window past the lock acquisition
        return spec.build_uncached()

    start.wait()
    base = FAULT_COUNTERS.snapshot()
    graph = GraphStore(store_dir).get_or_build(spec, slow_build)
    delta = FAULT_COUNTERS.delta_since(base)
    out.put(
        {
            "builds": delta.get("graph_store.builds", 0),
            "num_edges": graph.num_edges,
            "col_sum": int(graph.col_idx.sum()),
        }
    )


@pytest.mark.slow
def test_two_processes_race_cleanly(isolated_store):
    """Two processes build the same GraphSpec concurrently: exactly one
    builds, the other waits on the lock and maps; no torn artifact."""
    store_dir = str(isolated_store)
    ctx = multiprocessing.get_context("fork")
    start = ctx.Event()
    out = ctx.Queue()
    children = [
        ctx.Process(target=_racing_builder, args=(store_dir, start, out))
        for _ in range(2)
    ]
    for child in children:
        child.start()
    start.set()
    reports = [out.get(timeout=60) for _ in children]
    for child in children:
        child.join(timeout=60)
        assert child.exitcode == 0

    assert sum(r["builds"] for r in reports) == 1
    assert len({(r["num_edges"], r["col_sum"]) for r in reports}) == 1

    store = GraphStore(store_dir)
    digests = [d for d, _, _, _ in store.entries()]
    assert digests == [spec_digest(GraphSpec("rmat:9:8", seed=23))]
    leftovers = [n for n in os.listdir(store_dir) if n.startswith(".tmp-")]
    assert leftovers == []
    # The published artifact loads intact.
    assert store.load(digests[0]).num_edges == reports[0]["num_edges"]


class TestGraphMemo:
    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(_GRAPH_MEMO, "CAPACITY", 2)
        for seed in range(4):
            GraphSpec("rmat:7:4", seed=seed).build()
        assert len(_GRAPH_MEMO) == 2
        # Most recent two survive; the oldest were evicted.
        assert _GRAPH_MEMO.get(GraphSpec("rmat:7:4", seed=3)) is not None
        assert _GRAPH_MEMO.get(GraphSpec("rmat:7:4", seed=0)) is None

    def test_memo_lru_touch_on_hit(self, monkeypatch):
        monkeypatch.setattr(_GRAPH_MEMO, "CAPACITY", 2)
        a, b = GraphSpec("rmat:7:4", seed=1), GraphSpec("rmat:7:4", seed=2)
        a.build()
        b.build()
        a.build()  # memo hit: refreshes a's recency
        GraphSpec("rmat:7:4", seed=3).build()  # evicts b, not a
        assert _GRAPH_MEMO.get(a) is not None
        assert _GRAPH_MEMO.get(b) is None

    def test_store_backed_build_keeps_no_in_memory_graph(self, monkeypatch):
        """Once published, only the mapped artifact stays referenced:
        the in-memory suite build is freed when build() returns."""
        from repro.graph import suites

        built = []
        build_graph = suites.build_graph

        def spy(*args, **kwargs):
            graph = build_graph(*args, **kwargs)
            built.append(weakref.ref(graph))
            return graph

        monkeypatch.setattr(suites, "build_graph", spy)
        spec = GraphSpec("suite:twitter", seed=3, scale=1 / 4096)
        graph = spec.build()
        assert len(built) == 1
        assert built[0]() is None
        assert _GRAPH_MEMO.get(spec) is graph
        assert isinstance(graph.col_idx.base, np.memmap) or isinstance(
            graph.col_idx, np.memmap
        )

    def test_memo_hit_skips_store(self, isolated_store):
        spec = GraphSpec("rmat:7:4", seed=6)
        spec.build()
        base = FAULT_COUNTERS.snapshot()
        spec.build()
        assert _store_delta(base) == {}
