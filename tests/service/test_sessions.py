"""Resident graph sessions over HTTP: lifecycle, deltas, incremental
vs cold query equivalence, version-keyed caching, journal recovery."""

from __future__ import annotations

import asyncio
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import (
    SessionStateError,
    StreamError,
    UnknownSessionError,
)
from repro.service.client import ServiceClient
from repro.service.http import ReproService

from tests.service.test_http import call, http_request, make_spec, serve

GRAPH = "rmat:8:4"


def find_absent_edges(graph_spec: str, count: int, seed: int = 0):
    """Edge pairs absent from the named base graph (valid inserts)."""
    from repro.runner.spec import GraphSpec

    graph = GraphSpec(graph_spec).build()
    rng = np.random.default_rng(seed)
    edges = []
    while len(edges) < count:
        u = int(rng.integers(graph.num_vertices))
        v = int(rng.integers(graph.num_vertices))
        nbrs = graph.neighbors(u)
        i = int(np.searchsorted(nbrs, v))
        present = i < nbrs.shape[0] and int(nbrs[i]) == v
        if not present and [u, v] not in edges:
            edges.append([u, v])
    return edges


class TestSessionLifecycle:
    def test_create_get_list_close(self, tmp_path):
        async def body(svc, port):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            record = await call(client.create_session, GRAPH, 42, "t")
            assert record["state"] == "open"
            assert record["graph"] == GRAPH
            assert record["delta_seq"] == 0
            assert record["version_digest"] == record["base_digest"]
            got = await call(client.session, record["id"])
            assert got["id"] == record["id"]
            listing = await call(client.sessions)
            assert [s["id"] for s in listing] == [record["id"]]
            closed = await call(client.close_session, record["id"])
            assert closed["state"] == "closed"
            with pytest.raises(UnknownSessionError):
                await call(client.session, record["id"])

        serve(tmp_path, body)

    def test_close_waits_off_the_event_loop(self, tmp_path):
        """Regression: DELETE ran ``SessionManager.close`` on the event
        loop, which then waited for the manager's lock (held through a
        whole query elsewhere), and every other request waited too."""

        async def body(svc, port):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            record = await call(client.create_session, GRAPH, 42, "t")
            held, release = threading.Event(), threading.Event()

            def hold():
                with svc.sessions._lock:
                    held.set()
                    release.wait(2.0)

            def probe():
                closer = threading.Thread(
                    target=client.close_session, args=(record["id"],)
                )
                closer.start()
                time.sleep(0.2)  # the DELETE is waiting for the lock
                start = time.monotonic()
                health = client.health()
                seconds = time.monotonic() - start
                release.set()
                closer.join()
                return health, seconds

            holder = threading.Thread(target=hold)
            holder.start()
            held.wait(10.0)
            health, seconds = await call(probe)
            holder.join()
            assert health["status"] == "ok"
            assert seconds < 0.5
            with pytest.raises(UnknownSessionError):
                await call(client.session, record["id"])

        serve(tmp_path, body)

    @pytest.mark.parametrize("waiting", ["delta", "create"])
    def test_waiting_session_calls_leave_the_pool_free(
        self, tmp_path, waiting
    ):
        """Regression: every delta POST waiting on the session manager's
        lock held a thread of the loop's default executor, so as many of
        them as it has threads left job admission none, and a plain
        ``POST /v1/jobs`` waited for the lock too.  A session create
        waited on that lock to register its overlay."""
        threads = min(32, (os.cpu_count() or 1) + 4)
        inserts = find_absent_edges(GRAPH, threads)

        async def body(svc, port):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            sid = (await call(client.create_session, GRAPH, 42, "t"))["id"]
            held = threading.Event()

            def hold():
                with svc.sessions._lock:
                    held.set()
                    time.sleep(2.0)

            holder = threading.Thread(target=hold)
            holder.start()
            held.wait(10.0)
            loop = asyncio.get_running_loop()
            # The clients get threads of their own (see TestJobBurst).
            with ThreadPoolExecutor(threads + 1) as pool:
                if waiting == "delta":
                    calls = [
                        loop.run_in_executor(
                            pool, client.apply_delta, sid, [edge], []
                        )
                        for edge in inserts
                    ]
                else:
                    calls = [
                        loop.run_in_executor(
                            pool, client.create_session, GRAPH, 42, "t"
                        )
                        for _ in range(threads)
                    ]
                await asyncio.sleep(0.3)  # every session POST is waiting
                start = time.monotonic()
                await loop.run_in_executor(pool, client.submit, make_spec())
                seconds = time.monotonic() - start
                records = await asyncio.gather(*calls)
            holder.join()
            assert seconds < 0.5
            if waiting == "delta":
                assert sorted(r["delta_seq"] for r in records) == list(
                    range(1, threads + 1)
                )
            else:
                assert len({r["id"] for r in records} - {sid}) == threads

        serve(tmp_path, body)

    def test_unknown_session_is_404(self, tmp_path):
        async def body(svc, port):
            status, payload, _ = await call(
                http_request, port, "GET", "/v1/sessions/s-nope"
            )
            assert status == 404
            assert payload["error"] == "unknown_session"
            client = ServiceClient(f"http://127.0.0.1:{port}")
            with pytest.raises(UnknownSessionError):
                await call(client.apply_delta, "s-nope", [[0, 1]], [])

        serve(tmp_path, body)

    def test_bad_delta_is_400(self, tmp_path):
        async def body(svc, port):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            record = await call(client.create_session, GRAPH, 42, "t")
            with pytest.raises(StreamError, match="duplicate"):
                await call(
                    client.apply_delta,
                    record["id"],
                    [[0, 1], [0, 1]],
                    [],
                )
            # The session is untouched by the rejected batch.
            got = await call(client.session, record["id"])
            assert got["delta_seq"] == 0

        serve(tmp_path, body)


class TestDeltasAndQueries:
    def test_delta_advances_version_and_queries_match(self, tmp_path):
        inserts = find_absent_edges(GRAPH, 6)

        async def body(svc, port):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            # Counters are process-global: assert deltas, not totals.
            base_metrics = (await call(client.metrics))["stream"]
            record = await call(client.create_session, GRAPH, 42, "t")
            sid = record["id"]
            v0 = record["version_digest"]
            after = await call(client.apply_delta, sid, inserts[:3], [])
            assert after["delta_seq"] == 1
            assert after["version_digest"] != v0
            after2 = await call(client.apply_delta, sid, inserts[3:], [])
            assert after2["delta_seq"] == 2
            assert after2["version_digest"] != after["version_digest"]

            shas = {}
            for mode in ("incremental", "cold"):
                for workload in ("bfs", "cc", "pr"):
                    job = await call(
                        client.session_submit, sid, workload, mode
                    )
                    job = await call(client.wait, job["id"])
                    assert job["state"] == "done", job
                    payload = await call(client.result, job["id"])
                    shas[(workload, mode)] = payload["result"][
                        "result_sha256"
                    ]
                    assert payload["result"]["system"] == "stream"
            for workload in ("bfs", "cc", "pr"):
                assert (
                    shas[(workload, "incremental")]
                    == shas[(workload, "cold")]
                ), workload

            stream = (await call(client.metrics))["stream"]

            def grew(name, by):
                return stream[name] - base_metrics.get(name, 0) == by

            assert grew("stream.sessions_opened", 1)
            assert grew("stream.deltas_applied", 2)
            assert grew("stream.queries_incremental", 3)
            assert grew("stream.queries_cold", 3)

        serve(tmp_path, body)

    def test_same_version_resubmit_hits_cache(self, tmp_path):
        inserts = find_absent_edges(GRAPH, 2)

        async def body(svc, port):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            sid = (await call(client.create_session, GRAPH, 42, "t"))["id"]
            await call(client.apply_delta, sid, inserts, [])
            job = await call(client.session_submit, sid, "pr")
            job = await call(client.wait, job["id"])
            assert job["state"] == "done"
            again = await call(client.session_submit, sid, "pr")
            assert again.get("cached"), again
            # A new delta changes the version digest: no stale hit.
            await call(client.apply_delta, sid, [], [inserts[0]])
            fresh = await call(client.session_submit, sid, "pr")
            assert not fresh.get("cached")
            fresh = await call(client.wait, fresh["id"])
            assert fresh["state"] == "done"

        serve(tmp_path, body)

    def test_compact_preserves_version_and_cache(self, tmp_path):
        inserts = find_absent_edges(GRAPH, 3)

        async def body(svc, port):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            sid = (await call(client.create_session, GRAPH, 42, "t"))["id"]
            before = await call(client.apply_delta, sid, inserts, [])
            job = await call(client.session_submit, sid, "cc")
            job = await call(client.wait, job["id"])
            assert job["state"] == "done"
            compacted = await call(client.compact_session, sid)
            assert (
                compacted["version_digest"] == before["version_digest"]
            )
            again = await call(client.session_submit, sid, "cc")
            assert again.get("cached"), again
            metrics = await call(client.metrics)
            assert metrics["stream"]["stream.compactions"] >= 1

        serve(tmp_path, body)

    def test_query_behind_a_delta_is_refused(self, tmp_path):
        """A query admitted at version v that runs after a delta moved
        the session to v+1 fails on the version guard, and its answer
        never reaches the run cache under v's key."""
        from repro.stream.delta import EdgeDeltaBatch

        inserts = find_absent_edges(GRAPH, 1)

        async def body(svc, port):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            sid = (await call(client.create_session, GRAPH, 42, "t"))["id"]
            execute = svc.sessions.execute_job
            refused = []

            def execute_behind_a_delta(spec):
                svc.sessions.apply(sid, EdgeDeltaBatch(inserts=inserts))
                try:
                    return execute(spec)
                except SessionStateError as exc:
                    refused.append(exc)
                    raise

            svc.sessions.execute_job = execute_behind_a_delta
            job = await call(client.session_submit, sid, "pr")
            assert not job.get("cached"), job
            job = await call(client.wait, job["id"])
            assert job["state"] == "failed", job
            assert job["error_type"] == "SessionStateError"
            assert [exc.state for exc in refused] == ["version_mismatch"]
            assert (await call(client.session, sid))["delta_seq"] == 1
            assert not svc.runner.cache.contains(job["key"])
            assert list(svc.runner.cache.entries()) == []

        serve(tmp_path, body)

    def test_closed_session_rejects_work(self, tmp_path):
        async def body(svc, port):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            sid = (await call(client.create_session, GRAPH, 42, "t"))["id"]
            await call(client.close_session, sid)
            with pytest.raises((UnknownSessionError, SessionStateError)):
                await call(client.apply_delta, sid, [[0, 1]], [])

        serve(tmp_path, body)


class TestDefaultSource:
    def test_default_source_survives_compaction_and_restart(self, tmp_path):
        """An omitted BFS source resolves against the session's original
        base, not the head: a compaction and a restart, which replays
        the journal onto the original base to the same head, leave it
        unchanged."""
        from repro.runner.spec import GraphSpec
        from repro.stream.delta import EdgeDeltaBatch
        from repro.stream.session import SessionManager, SessionStore

        graph = "rmat:9:8"
        base = GraphSpec(graph, seed=42).build()
        degrees = np.asarray(base.out_degrees())
        top = int(np.argmax(degrees))
        # Give vertex 3 more out-edges than the base's top vertex has.
        present = set(base.neighbors(3).tolist())
        targets = [
            v for v in range(base.num_vertices) if v != 3 and v not in present
        ]
        inserts = [(3, v) for v in targets[: degrees[top] - degrees[3] + 1]]

        def manager():
            return SessionManager(SessionStore(str(tmp_path / "svc")))

        live = manager()
        sid = live.create(graph, seed=42).id
        before = live.resolve_job_source(sid, "bfs", None)
        live.apply(sid, EdgeDeltaBatch(inserts=inserts))
        live.compact(sid)
        head = live.overlay(sid).materialize()
        assert int(np.argmax(head.out_degrees())) == 3
        after = live.resolve_job_source(sid, "bfs", None)
        restart = manager()
        replayed = restart.overlay(sid).materialize()
        assert np.array_equal(replayed.row_ptr, head.row_ptr)
        assert np.array_equal(replayed.col_idx, head.col_idx)
        restarted = restart.resolve_job_source(sid, "bfs", None)
        live.close(sid)  # release the process-wide store pins
        assert before == after == restarted == top


class TestStorePrune:
    def test_session_outlives_its_pruned_artifacts(self, tmp_path, monkeypatch):
        """Pruning the graph store to nothing under a live session (its
        base artifact; compaction publishes none) costs it nothing: deltas,
        queries, a second compaction and a restart all still answer as
        a cold run on the replayed overlay."""
        from types import SimpleNamespace

        from repro.graph.store import GraphStore
        from repro.runner.spec import _GRAPH_MEMO, GraphSpec
        from repro.stream.delta import EdgeDeltaBatch
        from repro.stream.incremental import cold_answer
        from repro.stream.overlay import DeltaOverlayGraph
        from repro.stream.session import SessionManager, SessionStore

        from tests.stream.test_equivalence import PR_ATOL

        monkeypatch.setenv("REPRO_GRAPH_STORE_DIR", str(tmp_path / "graphs"))
        _GRAPH_MEMO.clear()
        store = GraphStore()
        inserts = find_absent_edges(GRAPH, 6)
        base = GraphSpec(GRAPH).build()
        deletes = [[u, int(base.neighbors(u)[0])] for u in (1, 2, 5)
                   if base.neighbors(u).shape[0]]

        def manager():
            return SessionManager(SessionStore(str(tmp_path / "svc")))

        def check(sessions, sid):
            record = sessions.store.get(sid)
            replay = DeltaOverlayGraph(
                GraphSpec(GRAPH).build_uncached(),
                base_digest=record.base_digest,
            )
            for payload in sessions.store.deltas(sid):
                replay.apply(EdgeDeltaBatch.from_dict(payload))
            merged = replay.materialize()
            source = sessions.resolve_job_source(sid, "bfs", None)
            for workload in ("bfs", "pr"):
                cold = cold_answer(workload, merged, source=source)
                for mode in ("incremental", "cold"):
                    result = sessions.execute_job(SimpleNamespace(
                        session=sid,
                        graph_digest=record.version_digest,
                        workload=workload,
                        source=None,
                        workload_kwargs={"mode": mode},
                    ))
                    if workload == "bfs":
                        assert np.array_equal(result.result, cold)
                    else:
                        np.testing.assert_allclose(
                            result.result, cold, atol=PR_ATOL, rtol=0
                        )

        live = manager()
        sid = live.create(GRAPH, seed=42).id
        live.apply(sid, EdgeDeltaBatch(inserts=inserts[:3], deletes=deletes))
        check(live, sid)
        live.compact(sid)
        published = {digest for digest, _, _, _ in store.entries()}
        assert published == {live.store.get(sid).base_digest}
        assert store.prune(0) == 1
        assert list(store.entries()) == []

        live.apply(sid, EdgeDeltaBatch(inserts=inserts[3:5]))
        check(live, sid)
        live.compact(sid)
        check(live, sid)
        live.apply(sid, EdgeDeltaBatch(inserts=inserts[5:]))
        _GRAPH_MEMO.clear()  # the restart rebuilds the evicted base
        check(manager(), sid)


class TestJournalRecovery:
    def test_sessions_survive_restart(self, tmp_path):
        from repro.runner.spec import GraphSpec

        inserts = find_absent_edges(GRAPH, 4)
        # A pair the base holds several times: deleted, compacted away,
        # then re-inserted, it must come back with every copy, as the
        # restart's uncompacted replay restores it.
        base = GraphSpec(GRAPH, seed=42).build()
        pair = next(
            [u, int(v)]
            for u in range(base.num_vertices)
            for v in np.unique(base.neighbors(u))
            if np.count_nonzero(base.neighbors(u) == v) > 1
        )
        state: dict = {}

        def edges(svc, sid):
            graph = svc.sessions.overlay(sid).materialize()
            return np.asarray(graph.row_ptr), np.asarray(graph.col_idx)

        async def first(svc, port):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            record = await call(client.create_session, GRAPH, 42, "t")
            sid = record["id"]
            await call(client.apply_delta, sid, inserts[:2], [pair])
            await call(client.compact_session, sid)
            advanced = await call(
                client.apply_delta, sid, inserts[2:] + [pair], []
            )
            job = await call(client.session_submit, sid, "pr")
            job = await call(client.wait, job["id"])
            assert job["state"] == "done"
            state["sid"] = sid
            state["version"] = advanced["version_digest"]
            state["edges"] = await call(edges, svc, sid)

        async def second(svc, port):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            record = await call(client.session, state["sid"])
            # The journal replays to the exact same version digest...
            assert record["version_digest"] == state["version"]
            assert record["delta_seq"] == 2
            # ...which names the same graph as before the restart...
            row_ptr, col_idx = await call(edges, svc, state["sid"])
            assert np.array_equal(row_ptr, state["edges"][0])
            assert np.array_equal(col_idx, state["edges"][1])
            # ...so a resubmit at that version is a cache hit across
            # the restart.
            job = await call(client.session_submit, state["sid"], "pr")
            assert job.get("cached"), job
            # And the session remains fully usable.
            more = find_absent_edges(GRAPH, 8, seed=1)
            fresh = [e for e in more if e not in inserts][:2]
            after = await call(
                client.apply_delta, state["sid"], fresh, []
            )
            assert after["delta_seq"] == 3

        serve(tmp_path, first)
        serve(tmp_path, second)
