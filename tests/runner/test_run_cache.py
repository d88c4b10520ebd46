"""Content-addressed run cache: key semantics and entry integrity."""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import pickle

import numpy as np
import pytest

from repro.graph.generators import rmat, with_uniform_weights
from repro.obs import ObsConfig
from repro.runner.cache import RunCache, graph_digest, spec_key
from repro.runner.spec import GraphSpec, RunSpec
from repro.runner.execute import execute_spec
from repro.sim.config import scaled_config


@pytest.fixture(scope="module")
def graph():
    return rmat(9, 8, seed=5)


@pytest.fixture(scope="module")
def config():
    return scaled_config(num_gpns=1, scale=1.0 / 1024.0)


def bfs_spec(graph, config, **overrides):
    defaults = dict(config=config, source=0)
    defaults.update(overrides)
    return RunSpec("bfs", graph, **defaults)


class TestSpecKey:
    def test_key_is_deterministic(self, graph, config):
        assert spec_key(bfs_spec(graph, config)) == spec_key(
            bfs_spec(graph, config)
        )

    def test_key_changes_with_config(self, graph, config):
        base = spec_key(bfs_spec(graph, config))
        tweaked = config.with_updates(cache_bytes_per_pe=config.cache_bytes_per_pe * 2)
        assert spec_key(bfs_spec(graph, tweaked)) != base

    def test_key_changes_with_graph_content(self, graph, config):
        base = spec_key(bfs_spec(graph, config))
        other = rmat(9, 8, seed=6)
        assert spec_key(bfs_spec(other, config)) != base
        weighted = with_uniform_weights(graph, seed=7)
        assert spec_key(bfs_spec(weighted, config)) != base

    def test_key_changes_with_workload_and_kwargs(self, graph, config):
        base = spec_key(bfs_spec(graph, config))
        assert spec_key(
            RunSpec("sssp", graph, config=config, source=0)
        ) != base
        pr = RunSpec("pr", graph, config=config)
        pr_longer = RunSpec(
            "pr", graph, config=config, workload_kwargs={"max_supersteps": 9}
        )
        assert spec_key(pr) != spec_key(pr_longer)

    def test_key_changes_with_source_and_placement(self, graph, config):
        base = spec_key(bfs_spec(graph, config))
        assert spec_key(bfs_spec(graph, config, source=1)) != base
        assert (
            spec_key(bfs_spec(graph, config, placement="locality")) != base
        )
        assert spec_key(bfs_spec(graph, config, placement_seed=2)) != base

    def test_graphspec_and_built_graph_share_a_key(self, config):
        recipe = GraphSpec("suite:road", scale=1.0 / 1024.0)
        built = recipe.build()
        by_recipe = spec_key(RunSpec("bfs", recipe, config=config, source=0))
        by_graph = spec_key(RunSpec("bfs", built, config=config, source=0))
        assert by_recipe == by_graph

    def test_session_schema_keys_session_queries_only(
        self, graph, config, monkeypatch
    ):
        import repro.runner.cache as cache

        session = RunSpec(
            "pr",
            GraphSpec("rmat:8:4"),
            system="stream",
            workload_kwargs={"mode": "incremental"},
            graph_digest="v" * 64,
        )
        before = spec_key(session), spec_key(bfs_spec(graph, config))
        monkeypatch.setattr(
            cache, "SESSION_QUERY_SCHEMA", cache.SESSION_QUERY_SCHEMA + 1
        )
        assert spec_key(session) != before[0]
        assert spec_key(bfs_spec(graph, config)) == before[1]

    def test_graph_digest_covers_weights(self, graph):
        assert graph_digest(graph) != graph_digest(
            with_uniform_weights(graph, seed=7)
        )

    def test_key_changes_with_obs_config(self, graph, config):
        """An instrumented run must never alias an uninstrumented entry:
        the cached RunResult carries (or lacks) the timeline."""
        base = spec_key(bfs_spec(graph, config))
        timeline = spec_key(
            bfs_spec(graph, config, obs=ObsConfig(timeline=True))
        )
        assert timeline != base
        # Every knob of the obs config participates in the key.
        assert (
            spec_key(
                bfs_spec(
                    graph,
                    config,
                    obs=ObsConfig(timeline=True, timeline_capacity=128),
                )
            )
            != timeline
        )
        assert (
            spec_key(bfs_spec(graph, config, obs=ObsConfig(phases=True)))
            != timeline
        )

    def test_obs_key_is_deterministic(self, graph, config):
        obs = ObsConfig(timeline=True, timeline_capacity=256)
        assert spec_key(bfs_spec(graph, config, obs=obs)) == spec_key(
            bfs_spec(graph, config, obs=ObsConfig(timeline=True, timeline_capacity=256))
        )


class TestConfigToken:
    def test_equal_fresh_configs_share_one_memoized_token(self):
        from repro.runner import cache as run_cache

        run_cache._CONFIG_TOKEN_MEMO.clear()
        a = scaled_config(num_gpns=2, scale=1.0 / 1024.0)
        b = scaled_config(num_gpns=2, scale=1.0 / 1024.0)
        assert a is not b and a == b
        token = run_cache._config_token(a)
        assert token == f"NovaConfig:{dataclasses.asdict(b)!r}"
        assert run_cache._config_token(b) is token
        assert len(run_cache._CONFIG_TOKEN_MEMO) == 1
        assert run_cache._config_token(
            scaled_config(num_gpns=4, scale=1.0 / 1024.0)
        ) != token

    def test_equal_configs_spelled_differently_keep_their_tokens(self):
        # Dataclass equality takes 2 == 2.0, but the tokens (and so the
        # keys) of the two configs differ, whichever is keyed first.
        from repro.runner import cache as run_cache
        from repro.sim.config import NovaConfig

        as_int, as_float = NovaConfig(num_gpns=2), NovaConfig(num_gpns=2.0)
        assert as_int == as_float
        for first, second in ((as_int, as_float), (as_float, as_int)):
            run_cache._CONFIG_TOKEN_MEMO.clear()
            tokens = [run_cache._config_token(c) for c in (first, second)]
            assert tokens == [
                f"NovaConfig:{dataclasses.asdict(c)!r}"
                for c in (first, second)
            ]
            assert tokens[0] != tokens[1]

    def test_mutable_configs_are_not_memoized(self):
        from repro.runner import cache as run_cache

        @dataclasses.dataclass
        class Mutable:
            size: int = 1

        config = Mutable()
        run_cache._CONFIG_TOKEN_MEMO.clear()
        assert run_cache._config_token(config) == "Mutable:{'size': 1}"
        config.size = 2
        assert run_cache._config_token(config) == "Mutable:{'size': 2}"
        assert len(run_cache._CONFIG_TOKEN_MEMO) == 0


def _write_v1_entry(cache, key, result) -> str:
    """An entry as written before summary headers: magic ``RNC1``, the
    pickle's SHA-256, the pickle."""
    payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    path = os.path.join(cache.root, key[:2], key + ".pkl")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as f:
        f.write(b"RNC1" + hashlib.sha256(payload).digest() + payload)
    return path


class TestSummaryHeader:
    def test_header_holds_what_run_prints(self, tmp_path, graph, config):
        spec = bfs_spec(graph, config)
        result = execute_spec(spec)
        cache = RunCache(str(tmp_path))
        key = spec_key(spec)
        assert cache.load_summary(key) is None
        cache.store(key, result)
        lines = result.summary_lines()
        assert lines[0] == result.describe()
        assert len(lines) == 1 + len(result.breakdown) + len(
            result.utilization
        )
        assert cache.load_summary(key) == lines

    def test_summary_unpickles_nothing(
        self, tmp_path, graph, config, monkeypatch
    ):
        spec = bfs_spec(graph, config)
        result = execute_spec(spec)
        cache = RunCache(str(tmp_path))
        key = spec_key(spec)
        cache.store(key, result)

        def no_unpickling(data):
            raise AssertionError("unpickled the result")

        monkeypatch.setattr(pickle, "loads", no_unpickling)
        assert cache.load_summary(key) == result.summary_lines()

    def test_header_is_covered_by_the_digest(self, tmp_path, graph, config):
        spec = bfs_spec(graph, config)
        cache = RunCache(str(tmp_path))
        key = spec_key(spec)
        path = cache.store(key, execute_spec(spec))
        with open(path, "r+b") as f:
            f.seek(36 + 4 + 3)  # magic, digest, length: inside the header
            byte = f.read(1)
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([byte[0] ^ 0x01]))
        assert cache.load_summary(key) is None
        assert not os.path.exists(path)

    def test_old_format_entry_reads_as_a_miss(self, tmp_path, graph, config):
        spec = bfs_spec(graph, config)
        result = execute_spec(spec)
        cache = RunCache(str(tmp_path))
        key = spec_key(spec)
        path = _write_v1_entry(cache, key, result)
        assert cache.load_summary(key) is None
        assert not os.path.exists(path)  # unlinked, to be recomputed
        _write_v1_entry(cache, key, result)
        assert cache.load(key) is None
        assert not os.path.exists(path)


class TestRunCache:
    def test_roundtrip_is_identical(self, tmp_path, graph, config):
        spec = bfs_spec(graph, config)
        result = execute_spec(spec)
        cache = RunCache(str(tmp_path))
        key = spec_key(spec)
        assert cache.load(key) is None
        cache.store(key, result)
        loaded = cache.load(key)
        assert loaded is not None
        assert loaded.elapsed_seconds == result.elapsed_seconds
        assert loaded.quanta == result.quanta
        assert np.array_equal(loaded.result, result.result)
        assert loaded.traffic == result.traffic

    def test_corrupt_entry_is_unlinked_and_misses(self, tmp_path, graph, config):
        spec = bfs_spec(graph, config)
        cache = RunCache(str(tmp_path))
        key = spec_key(spec)
        path = cache.store(key, execute_spec(spec))

        with open(path, "r+b") as f:
            f.seek(40)
            f.write(b"\xff\xff\xff\xff")
        assert cache.load(key) is None
        assert not os.path.exists(path)

        path = cache.store(key, execute_spec(spec))
        with open(path, "wb") as f:
            f.write(b"not a cache entry")
        assert cache.load(key) is None
        assert not os.path.exists(path)

        # A truncated header is also a miss, not a crash.
        path = cache.store(key, execute_spec(spec))
        with open(path, "r+b") as f:
            f.truncate(10)
        assert cache.load(key) is None

    def test_instrumented_and_plain_runs_cache_separately(
        self, tmp_path, graph, config
    ):
        """End to end: a plain cached run is not served for a profiled
        request (and vice versa); timelines survive the cache."""
        from repro.runner.sweep import SweepRunner

        runner = SweepRunner(workers=1, cache_dir=str(tmp_path))
        plain = bfs_spec(graph, config)
        profiled = bfs_spec(graph, config, obs=ObsConfig(timeline=True))

        run_plain = runner.run_one(plain)
        assert run_plain.timeline is None

        results, stats = runner.run([profiled])
        assert stats.hits == 0 and stats.computed == 1
        assert results[0].timeline is not None
        assert results[0].timeline["quanta"] == results[0].quanta

        # Both variants now hit, each returning its own payload.
        results, stats = runner.run([plain, profiled])
        assert stats.hits == 2 and stats.computed == 0
        assert results[0].timeline is None
        assert results[1].timeline is not None

    def test_obs_on_non_nova_system_is_rejected(self, graph):
        from repro.errors import ConfigError

        spec = RunSpec(
            "bfs", graph, system="ligra", source=0, obs=ObsConfig(timeline=True)
        )
        with pytest.raises(ConfigError):
            execute_spec(spec)

    def test_load_survives_concurrent_prune(
        self, tmp_path, graph, config, monkeypatch
    ):
        """A prune() racing load() between the read and the LRU touch
        must not turn a successfully read entry into a crash."""
        spec = bfs_spec(graph, config)
        cache = RunCache(str(tmp_path))
        key = spec_key(spec)
        result = execute_spec(spec)
        path = cache.store(key, result)

        real_utime = os.utime

        def unlink_then_touch(target, *args, **kwargs):
            # Simulate the concurrent prune winning the race: the entry
            # vanishes after load() has the bytes but before the touch.
            if os.path.abspath(target) == os.path.abspath(path):
                os.unlink(path)
            return real_utime(target, *args, **kwargs)

        monkeypatch.setattr(os, "utime", unlink_then_touch)
        loaded = cache.load(key)
        assert loaded is not None
        assert loaded.quanta == result.quanta
        # The entry is gone (prune won), so the next load is a miss.
        monkeypatch.undo()
        assert cache.load(key) is None

    def test_concurrent_writers_never_corrupt_or_crash(
        self, tmp_path, graph, config
    ):
        """Real multi-process contention on one key.

        Four forked processes hammer the same entry with store(),
        load(), and full prune() concurrently.  The atomic-replace +
        verified-payload contract means every load must observe either
        a miss or a complete, digest-valid result -- never a torn one
        -- and no writer may crash on a racing unlink.
        """
        spec = bfs_spec(graph, config)
        key = spec_key(spec)
        result = execute_spec(spec)
        ctx = multiprocessing.get_context("fork")
        nproc, iters = 4, 25
        barrier = ctx.Barrier(nproc)
        failures = ctx.Queue()

        def hammer(rank):
            cache = RunCache(str(tmp_path))
            barrier.wait(timeout=60)
            try:
                for i in range(iters):
                    cache.store(key, result)
                    loaded = cache.load(key)
                    if loaded is not None and (
                        loaded.quanta != result.quanta
                        or not np.array_equal(loaded.result, result.result)
                    ):
                        failures.put(f"rank {rank}: corrupt load at {i}")
                        return
                    if i % 5 == rank:  # staggered full evictions
                        cache.prune(0)
            except Exception as exc:  # noqa: BLE001 -- report, don't hang
                failures.put(f"rank {rank}: {type(exc).__name__}: {exc}")

        procs = [
            ctx.Process(target=hammer, args=(rank,)) for rank in range(nproc)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert not any(proc.exitcode != 0 for proc in procs)
        errors = []
        while not failures.empty():
            errors.append(failures.get_nowait())
        assert errors == []
        # The survivors left a usable cache: one more store/load cycle.
        cache = RunCache(str(tmp_path))
        cache.store(key, result)
        final = cache.load(key)
        assert final is not None
        assert final.quanta == result.quanta

    def test_prune_drops_lru_entries(self, tmp_path, graph, config):
        cache = RunCache(str(tmp_path))
        result = execute_spec(bfs_spec(graph, config))
        keys = [f"{i:02x}" + "0" * 62 for i in range(4)]
        paths = [cache.store(key, result) for key in keys]
        # Make entry 0 oldest, entry 3 newest.
        for age, path in enumerate(paths):
            os.utime(path, (1000 + age, 1000 + age))
        entry_bytes = os.path.getsize(paths[0])
        removed = cache.prune(2 * entry_bytes)
        assert removed == 2
        assert not os.path.exists(paths[0])
        assert not os.path.exists(paths[1])
        assert os.path.exists(paths[2])
        assert os.path.exists(paths[3])
        assert cache.total_bytes() <= 2 * entry_bytes
