"""GraphStore unit tests: digests, round trips, the manifest's recorded
facts and their verification, corruption, eviction, and bit-identical
memmap-vs-in-memory simulation parity."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.errors import ConfigError, GraphFormatError
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.graph.store import (
    MANIFEST_NAME,
    GraphFacts,
    GraphStore,
    spec_digest,
)
from repro.obs.counters import FAULT_COUNTERS
from repro.runner.cache import graph_digest, spec_key
from repro.runner.spec import GraphSpec, _GRAPH_MEMO, lower_run
from repro.sim.config import scaled_config


@pytest.fixture(autouse=True)
def clear_memo():
    _GRAPH_MEMO.clear()
    yield
    _GRAPH_MEMO.clear()


@pytest.fixture
def store(tmp_path) -> GraphStore:
    return GraphStore(str(tmp_path / "graphs"))


SPEC = GraphSpec("rmat:10:8", seed=5)


def counters_delta(fn):
    """Run ``fn`` and return the graph_store.* counter increments."""
    base = FAULT_COUNTERS.snapshot()
    result = fn()
    delta = {
        name: count
        for name, count in FAULT_COUNTERS.delta_since(base).items()
        if name.startswith("graph_store.")
    }
    return result, delta


def is_memmap_backed(array: np.ndarray) -> bool:
    return isinstance(array, np.memmap) or isinstance(array.base, np.memmap)


class TestDigest:
    def test_stable(self):
        assert spec_digest(SPEC) == spec_digest(GraphSpec("rmat:10:8", seed=5))

    def test_every_field_matters(self):
        variants = [
            GraphSpec("rmat:11:8", seed=5),
            GraphSpec("rmat:10:8", seed=6),
            GraphSpec("rmat:10:8", seed=5, weighted=True),
            GraphSpec("rmat:10:8", seed=5, symmetrized=True),
            GraphSpec("rmat:10:8", seed=5, weighted=True, weight_seed=9),
            GraphSpec("suite:road", seed=5, scale=1.0 / 1024.0),
            GraphSpec("suite:road", seed=5, scale=1.0 / 512.0),
        ]
        digests = {spec_digest(v) for v in variants}
        digests.add(spec_digest(SPEC))
        assert len(digests) == len(variants) + 1

    def test_default_suite_scale_is_one_recipe(self):
        from repro.graph.suites import DEFAULT_SCALE

        implicit = GraphSpec("suite:road", seed=5)
        explicit = GraphSpec("suite:road", seed=5, scale=DEFAULT_SCALE)
        assert explicit == implicit and explicit.scale is None
        assert spec_digest(explicit) == spec_digest(implicit)
        assert spec_digest(
            GraphSpec("suite:road", seed=5, scale=DEFAULT_SCALE / 4)
        ) != spec_digest(implicit)

    def test_for_workload_scales_suite_specs_only(self):
        scaled = GraphSpec.for_workload("suite:road", "bfs", scale=1 / 1024)
        assert scaled.scale == 1 / 1024
        assert GraphSpec.for_workload(
            "rmat:10:8", "bfs", scale=1 / 1024
        ) == GraphSpec("rmat:10:8")

    def test_file_spec_digest_tracks_content(self, tmp_path):
        from repro.graph import io as graph_io

        path = tmp_path / "g.npz"
        graph_io.save_npz(rmat(8, 4, seed=1), str(path))
        first = spec_digest(GraphSpec(str(path)))
        graph_io.save_npz(rmat(8, 4, seed=2), str(path))
        os.utime(path, ns=(1, 1))  # force an mtime change even on coarse clocks
        assert spec_digest(GraphSpec(str(path))) != first


class TestRoundTrip:
    def test_cold_build_then_warm_map(self, store):
        built, cold = counters_delta(
            lambda: store.get_or_build(SPEC, SPEC.build_uncached)
        )
        assert cold["graph_store.builds"] == 1
        assert cold["graph_store.misses"] == 1
        assert "graph_store.hits" not in cold

        mapped, warm = counters_delta(
            lambda: store.get_or_build(SPEC, SPEC.build_uncached)
        )
        assert warm == {"graph_store.hits": 1}
        assert is_memmap_backed(mapped.row_ptr)
        assert is_memmap_backed(mapped.col_idx)
        assert not mapped.row_ptr.flags.writeable
        assert np.array_equal(built.row_ptr, mapped.row_ptr)
        assert np.array_equal(built.col_idx, mapped.col_idx)

    def test_weighted_round_trip(self, store):
        spec = GraphSpec("rmat:9:4", seed=3, weighted=True)
        built = store.get_or_build(spec, spec.build_uncached)
        mapped = store.load(spec_digest(spec))
        assert mapped.has_weights
        assert np.array_equal(built.weights, mapped.weights)
        assert mapped.weights.dtype == np.float64

    def test_manifest_provenance(self, store):
        store.get_or_build(SPEC, SPEC.build_uncached)
        ((digest, size, _, manifest),) = list(store.entries())
        assert digest == spec_digest(SPEC)
        assert size > 0
        assert manifest["num_vertices"] == 1024
        prov = manifest["provenance"]
        assert prov["spec"]["spec"] == "rmat:10:8"
        assert prov["build_seconds"] > 0

    def test_lost_publish_race_is_silent(self, store):
        graph = SPEC.build_uncached()
        digest = spec_digest(SPEC)
        store.put(digest, graph, spec=SPEC)
        # Publishing the same digest again (a lost race) must not raise
        # and must leave the existing artifact intact.
        store.put(digest, graph, spec=SPEC)
        assert store.load(digest) is not None

    def test_no_staging_leftovers(self, store):
        store.get_or_build(SPEC, SPEC.build_uncached)
        leftovers = [
            name
            for name in os.listdir(store.root)
            if name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_empty_graph_round_trip(self, store):
        empty = CSRGraph(np.zeros(5, dtype=np.int64), np.zeros(0, dtype=np.int64))
        digest = "00" + "ab" * 31
        store.put(digest, empty)
        mapped = store.load(digest)
        assert mapped.num_vertices == 4 and mapped.num_edges == 0


class TestCorruption:
    def _publish(self, store) -> str:
        store.get_or_build(SPEC, SPEC.build_uncached)
        return spec_digest(SPEC)

    def test_garbage_manifest_evicts(self, store):
        digest = self._publish(store)
        path = store._manifest_path(digest)
        with open(path, "w", encoding="utf-8") as f:
            f.write("{not json")
        _, delta = counters_delta(lambda: store.load(digest))
        assert delta["graph_store.corrupt"] == 1
        assert not os.path.exists(store._dir(digest))

    def test_wrong_magic_evicts(self, store):
        digest = self._publish(store)
        path = store._manifest_path(digest)
        with open(path, encoding="utf-8") as f:
            manifest = json.load(f)
        manifest["magic"] = "someone-else"
        with open(path, "w", encoding="utf-8") as f:
            json.dump(manifest, f)
        assert store.load(digest) is None
        assert not os.path.exists(store._dir(digest))

    def test_truncated_array_evicts(self, store):
        digest = self._publish(store)
        array_path = os.path.join(store._dir(digest), "col_idx.npy")
        size = os.path.getsize(array_path)
        with open(array_path, "r+b") as f:
            f.truncate(size // 2)
        _, delta = counters_delta(lambda: store.load(digest))
        assert delta["graph_store.corrupt"] == 1
        assert not os.path.exists(store._dir(digest))

    def test_missing_array_evicts(self, store):
        digest = self._publish(store)
        os.unlink(os.path.join(store._dir(digest), "row_ptr.npy"))
        assert store.load(digest) is None

    def test_corrupt_artifact_rebuilds(self, store):
        digest = self._publish(store)
        with open(store._manifest_path(digest), "w", encoding="utf-8") as f:
            f.write("")
        graph, delta = counters_delta(
            lambda: store.get_or_build(SPEC, SPEC.build_uncached)
        )
        assert delta["graph_store.builds"] == 1
        assert graph.num_vertices == 1024
        assert store.load(digest) is not None


class TestEviction:
    def test_prune_lru_order(self, store, tmp_path):
        specs = [GraphSpec("rmat:8:4", seed=s) for s in (1, 2, 3)]
        for spec in specs:
            store.get_or_build(spec, spec.build_uncached)
        # Touch the oldest so it becomes the most recently used.
        first = spec_digest(specs[0])
        os.utime(store._manifest_path(first))
        sizes = {d: s for d, s, _, _ in store.entries()}
        removed = store.prune(sizes[first] + 1)
        assert removed == 2
        assert [d for d, _, _, _ in store.entries()] == [first]

    def test_prune_protect(self, store):
        spec_a = GraphSpec("rmat:8:4", seed=1)
        store.get_or_build(spec_a, spec_a.build_uncached)
        protected = spec_digest(spec_a)
        removed = store.prune(0, protect=protected)
        assert removed == 0
        assert store.load(protected) is not None

    def test_env_budget_applies_after_build(self, store, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_STORE_MAX_BYTES", "1")
        spec_a = GraphSpec("rmat:8:4", seed=1)
        spec_b = GraphSpec("rmat:8:4", seed=2)
        store.get_or_build(spec_a, spec_a.build_uncached)
        graph = store.get_or_build(spec_b, spec_b.build_uncached)
        # The freshly published artifact is protected; the older one goes.
        assert graph.num_vertices == 256
        digests = [d for d, _, _, _ in store.entries()]
        assert digests == [spec_digest(spec_b)]


def _strip_facts(store, digest):
    """Rewrite a manifest as code older than the recorded facts wrote it."""
    path = store._manifest_path(digest)
    with open(path, encoding="utf-8") as f:
        manifest = json.load(f)
    del manifest["csr_digest"], manifest["default_source"]
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f)


def _edit_manifest(store, digest, **fields):
    path = store._manifest_path(digest)
    with open(path, encoding="utf-8") as f:
        manifest = json.load(f)
    manifest.update(fields)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f)


class TestRecordedFacts:
    """The manifest records the CSR digest and default source at
    publish; keys and sources read them without mapping the graph."""

    def test_publish_records_digest_and_default_source(self, store):
        built = SPEC.build_uncached()
        store.get_or_build(SPEC, lambda: built)
        ((_, _, _, manifest),) = list(store.entries())
        assert manifest["csr_digest"] == graph_digest(built)
        assert manifest["default_source"] == int(
            np.argmax(built.out_degrees())
        )
        facts = store.facts(spec_digest(SPEC))
        assert facts == GraphFacts(
            built.num_vertices, built.num_edges, graph_digest(built),
            manifest["default_source"],
        )

    def test_facts_map_no_array_and_count_a_hit(self, store, monkeypatch):
        from repro.graph import store as store_module

        store.get_or_build(SPEC, SPEC.build_uncached)

        def no_map(*args):
            raise AssertionError("mapped an array")

        monkeypatch.setattr(store_module, "_load_array", no_map)
        facts, delta = counters_delta(
            lambda: store.facts(spec_digest(SPEC))
        )
        assert facts.num_vertices == 1024
        assert delta == {"graph_store.hits": 1}
        assert store.facts("00" * 32) is None

    def test_mapped_graph_carries_the_recorded_digest(self, store):
        store.get_or_build(SPEC, SPEC.build_uncached)
        digest = spec_digest(SPEC)
        _edit_manifest(store, digest, csr_digest="f" * 64)
        assert store.load(digest).digest() == "f" * 64

    @pytest.mark.parametrize("workload", ["bfs", "sssp", "cc"])
    def test_manifest_without_facts_keys_identically(
        self, tmp_path, monkeypatch, workload
    ):
        monkeypatch.setenv("REPRO_GRAPH_STORE_DIR", str(tmp_path / "graphs"))
        store = GraphStore()
        recorded = lower_run(workload, "rmat:9:8")
        key, source = spec_key(recorded), recorded.source
        gspec = recorded.graph
        _strip_facts(store, spec_digest(gspec))
        _GRAPH_MEMO.clear()

        def relower():
            spec = lower_run(workload, "rmat:9:8")
            return spec, spec_key(spec)

        (old, old_key), delta = counters_delta(relower)
        assert old.source == source
        assert old_key == key
        # The older manifest read as corrupt: evicted, then rebuilt and
        # republished under the same digest, with both facts recorded.
        assert delta["graph_store.corrupt"] == 1
        assert delta["graph_store.builds"] == 1
        ((digest, _, _, manifest),) = list(store.entries())
        assert digest == spec_digest(gspec)
        assert manifest["csr_digest"] == gspec.facts().csr_digest
        assert manifest["default_source"] == gspec.facts().default_source

    @pytest.mark.parametrize("stripped", [False, True])
    def test_out_of_range_source_is_refused_as_before(
        self, tmp_path, monkeypatch, stripped
    ):
        monkeypatch.setenv("REPRO_GRAPH_STORE_DIR", str(tmp_path / "graphs"))
        gspec = lower_run("bfs", "rmat:6:4").graph
        if stripped:
            _strip_facts(GraphStore(), spec_digest(gspec))
        _GRAPH_MEMO.clear()
        with pytest.raises(
            ConfigError,
            match=r"^source 64 out of range: the graph has 64 vertices "
                  r"\(0\.\.63\)$",
        ):
            lower_run("bfs", "rmat:6:4", source=64)
        assert lower_run("bfs", "rmat:6:4", source=63).source == 63

    def test_graph_without_vertices_fails_as_before(
        self, tmp_path, monkeypatch
    ):
        from repro.graph import io as graph_io

        monkeypatch.setenv("REPRO_GRAPH_STORE_DIR", str(tmp_path / "graphs"))
        path = str(tmp_path / "empty.npz")
        graph_io.save_npz(
            CSRGraph(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)),
            path,
        )
        for _ in range(2):  # the cold build, then the published manifest
            _GRAPH_MEMO.clear()
            with pytest.raises(ValueError, match="empty sequence"):
                lower_run("bfs", path)
            with pytest.raises(
                ConfigError,
                match=r"the graph has 0 vertices \(0\.\.-1\)",
            ):
                lower_run("bfs", path, source=0)
            assert lower_run("pr", path).source is None
        assert GraphStore().facts(
            spec_digest(GraphSpec(path))
        ).default_source is None


class TestVerify:
    def test_clean_store_verifies(self, store):
        store.get_or_build(SPEC, SPEC.build_uncached)
        weighted = GraphSpec("rmat:8:4", seed=1, weighted=True)
        store.get_or_build(weighted, weighted.build_uncached)
        results, delta = counters_delta(lambda: list(store.verify()))
        assert sorted(d for d, _, _ in results) == sorted(
            [spec_digest(SPEC), spec_digest(weighted)]
        )
        assert [problem for _, _, problem in results] == [None, None]
        assert "graph_store.corrupt" not in delta
        assert len(list(store.entries())) == 2

    @pytest.mark.parametrize("field, value, problem", [
        ("csr_digest", "0" * 64, "csr_digest mismatch"),
        ("default_source", 3, "default_source mismatch"),
        ("num_edges", 1, "num_edges mismatch"),
    ])
    def test_mismatch_is_evicted_as_corrupt(
        self, store, field, value, problem
    ):
        store.get_or_build(SPEC, SPEC.build_uncached)
        digest = spec_digest(SPEC)
        _edit_manifest(store, digest, **{field: value})
        results, delta = counters_delta(lambda: list(store.verify()))
        assert [(d, p) for d, _, p in results] == [(digest, problem)]
        assert delta["graph_store.corrupt"] == 1
        assert not os.path.exists(store._dir(digest))

    def test_changed_array_bytes_are_caught(self, store):
        store.get_or_build(SPEC, SPEC.build_uncached)
        digest = spec_digest(SPEC)
        path = os.path.join(store._dir(digest), "col_idx.npy")
        with open(path, "r+b") as f:
            f.seek(-8, os.SEEK_END)
            last = int.from_bytes(f.read(8), "little")
            f.seek(-8, os.SEEK_END)
            f.write(((last + 1) % 1024).to_bytes(8, "little"))
        ((_, _, problem),) = list(store.verify())
        assert problem == "csr_digest mismatch"
        assert store.load(digest) is None

    def test_unreadable_arrays_are_reported(self, store):
        store.get_or_build(SPEC, SPEC.build_uncached)
        digest = spec_digest(SPEC)
        os.unlink(os.path.join(store._dir(digest), "row_ptr.npy"))
        assert [p for _, _, p in store.verify()] == ["unreadable arrays"]
        assert not os.path.exists(store._dir(digest))

    def test_older_artifact_is_evicted(self, store):
        store.get_or_build(SPEC, SPEC.build_uncached)
        digest = spec_digest(SPEC)
        _strip_facts(store, digest)
        results, delta = counters_delta(lambda: list(store.verify()))
        assert [(d, p) for d, _, p in results] == [
            (digest, "unreadable manifest")
        ]
        assert delta["graph_store.corrupt"] == 1
        assert not os.path.exists(store._dir(digest))


class TestEnvGates:
    def test_build_routes_through_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_STORE_DIR", str(tmp_path / "graphs"))
        graph = SPEC.build()
        assert is_memmap_backed(graph.row_ptr)
        _GRAPH_MEMO.clear()
        again = SPEC.build()
        assert np.array_equal(graph.col_idx, again.col_idx)

    def test_bad_budget_raises(self, store, monkeypatch):
        from repro.errors import ConfigError

        monkeypatch.setenv("REPRO_GRAPH_STORE_MAX_BYTES", "lots")
        with pytest.raises(ConfigError):
            store.get_or_build(SPEC, SPEC.build_uncached)


def test_unusable_store_builds_in_memory(tmp_path):
    """A store root under a regular file is a full store: the build
    stays in memory, counted as a put error, and nothing raises."""
    (tmp_path / "file").write_text("")
    store = GraphStore(str(tmp_path / "file" / "graphs"))
    graph, delta = counters_delta(
        lambda: store.get_or_build(SPEC, SPEC.build_uncached)
    )
    assert not is_memmap_backed(graph.row_ptr)
    assert graph.num_vertices == 1024
    delta.pop("graph_store.build_ms", None)
    assert delta == {
        "graph_store.misses": 1,
        "graph_store.builds": 1,
        "graph_store.put_errors": 1,
    }
    assert store.facts(spec_digest(SPEC)) is None


class TestMemmapGraphBehaviour:
    """A store-mapped CSRGraph must behave exactly like the built one."""

    def test_transformations_work_on_memmap(self, store):
        built = store.get_or_build(SPEC, SPEC.build_uncached)
        mapped = store.load(spec_digest(SPEC))
        assert np.array_equal(
            built.out_degrees(), mapped.out_degrees()
        )
        assert np.array_equal(
            built.transpose().col_idx, mapped.transpose().col_idx
        )
        assert np.array_equal(
            built.symmetrized().row_ptr, mapped.symmetrized().row_ptr
        )

    def test_validate_false_skips_structural_checks(self):
        bad_row_ptr = np.array([0, 5, 3, 4], dtype=np.int64)
        with pytest.raises(GraphFormatError):
            CSRGraph(bad_row_ptr, np.zeros(4, dtype=np.int64))
        graph = CSRGraph(
            bad_row_ptr, np.zeros(4, dtype=np.int64), validate=False
        )
        assert graph.num_vertices == 3

    def test_memmap_pickles_as_plain_arrays(self, store):
        import pickle

        store.get_or_build(SPEC, SPEC.build_uncached)
        mapped = store.load(spec_digest(SPEC))
        clone = pickle.loads(pickle.dumps(mapped))
        assert np.array_equal(clone.col_idx, mapped.col_idx)


@pytest.mark.parametrize("workload,kwargs", [
    ("bfs", {}),
    ("pr", {"max_supersteps": 5}),
])
@pytest.mark.parametrize("engine", ["vectorized", "scalar"])
def test_memmap_run_parity(tmp_path, workload, kwargs, engine):
    """Engine-parity matrix: a store-mapped graph must produce runs
    bit-identical to the in-memory build on both engines."""
    from repro.core.system import NovaSystem

    store = GraphStore(str(tmp_path / "graphs"))
    spec = GraphSpec("rmat:9:8", seed=7)
    in_memory = spec.build_uncached()
    store.get_or_build(spec, lambda: in_memory)
    mapped = store.load(spec_digest(spec))
    assert is_memmap_backed(mapped.col_idx)

    config = scaled_config(num_gpns=2, scale=1.0 / 1024.0)
    source = None if workload == "pr" else 0
    runs = []
    for graph in (in_memory, mapped):
        system = NovaSystem(config, graph, placement="random", engine=engine)
        runs.append(system.run(workload, source=source, **kwargs))
    a, b = runs
    assert a.elapsed_seconds == b.elapsed_seconds
    assert a.quanta == b.quanta
    assert np.array_equal(a.result, b.result)
    assert a.messages_sent == b.messages_sent
    assert a.messages_processed == b.messages_processed
    assert a.traffic == b.traffic
