"""A version digest names one graph: a restore brings back every copy.

R-MAT bases are multigraphs, and a pair delete removes every copy of
the pair.  Its re-insert must bring back as many copies as the base
the session opened on held, or the same version digest would name
different graphs depending on the path that led to it -- a restart
replays the journal onto that base.  This suite drives restore-heavy
delta sequences and checks, at every version, the head CSR against
``CSRGraph.from_edges`` over an independent model of the edge multiset
(a ``Counter`` of pairs updated by that restore rule), and incremental
BFS / CC / PageRank against cold.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.stream.delta import EdgeDeltaBatch, net_delta
from repro.stream.incremental import (
    cold_answer,
    incremental_update,
    seed_state,
)
from repro.stream.overlay import DeltaOverlayGraph

from tests.stream.test_equivalence import PR_ATOL


def multi_copy_pairs(graph) -> np.ndarray:
    """``(u, v)`` pairs the base holds at least twice."""
    n = graph.num_vertices
    keys = np.asarray(graph.edge_sources()) * n + np.asarray(graph.col_idx)
    unique, counts = np.unique(keys, return_counts=True)
    multi = unique[counts > 1]
    return np.stack([multi // n, multi % n], axis=1)


def restore_heavy_batch(overlay, rng, multi, gone) -> EdgeDeltaBatch:
    """Re-insert about half the deleted pairs; delete multi-copy pairs,
    a few random present pairs and insert a few fresh ones."""
    n = overlay.num_vertices
    inserts = {pair for pair in sorted(gone) if rng.random() < 0.5}
    deletes = set()
    for u, v in rng.permutation(multi)[:4]:
        pair = (int(u), int(v))
        if overlay.has_edge(*pair) and pair not in inserts:
            deletes.add(pair)
    for _ in range(2):
        u = int(rng.integers(n))
        nbrs = overlay.neighbors(u)
        if nbrs.size:
            pair = (u, int(nbrs[rng.integers(nbrs.size)]))
            if pair not in inserts:
                deletes.add(pair)
    for _ in range(3):
        pair = (int(rng.integers(n)), int(rng.integers(n)))
        if not overlay.has_edge(*pair) and pair not in deletes:
            inserts.add(pair)
    return EdgeDeltaBatch(inserts=sorted(inserts), deletes=sorted(deletes))


def model_graph(model: Counter, num_vertices: int) -> CSRGraph:
    """``CSRGraph.from_edges`` over the multiset ``model`` counts."""
    pairs = np.asarray(sorted(model.elements()), dtype=np.int64)
    pairs = pairs.reshape(-1, 2)
    return CSRGraph.from_edges(pairs[:, 0], pairs[:, 1], num_vertices)


class TestCompactionKeepsTheGraph:
    @given(seed=st.integers(0, 999), steps=st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_every_version_names_one_multiset(self, seed, steps):
        base = rmat(7, 8, seed=seed)
        origin = Counter(
            zip(base.edge_sources().tolist(), base.col_idx.tolist())
        )
        model = Counter(origin)
        live = DeltaOverlayGraph(base, base_digest="test")
        multi = multi_copy_pairs(base)
        rng = np.random.default_rng(seed)
        source = int(np.argmax(base.out_degrees()))
        states = {
            "bfs": seed_state("bfs", live, source=source)[0],
            "cc": seed_state("cc", live)[0],
            "pr": seed_state("pr", live)[0],
        }
        lagging = seed_state("pr", live)[0]
        gone: set = set()
        for _ in range(steps):
            batch = restore_heavy_batch(live, rng, multi, gone)
            if batch.empty:
                continue
            live.apply(batch)
            # The restore rule: a delete removes every copy, an insert
            # adds the origin's multiplicity, or one.
            for pair in map(tuple, batch.deletes.tolist()):
                del model[pair]
            for pair in map(tuple, batch.inserts.tolist()):
                model[pair] = origin[pair] or 1
            gone -= {tuple(p) for p in batch.inserts.tolist()}
            gone |= {tuple(p) for p in batch.deletes.tolist()}
            head = live.materialize()
            expected = model_graph(model, base.num_vertices)
            assert live.num_edges == expected.num_edges
            assert head.row_ptr.tobytes() == expected.row_ptr.tobytes()
            assert head.col_idx.tobytes() == expected.col_idx.tobytes()
            for workload, state in states.items():
                ins, dels = net_delta(live.batches[state.seq:])
                answer, stats = incremental_update(
                    workload, live, state, ins, dels
                )
                cold = cold_answer(workload, expected, source=source)
                if workload == "pr":
                    np.testing.assert_allclose(
                        answer, cold, atol=PR_ATOL, rtol=0
                    )
                else:
                    assert np.array_equal(answer, cold), (
                        workload, stats
                    )
        # A state left behind by every batch catches up in one
        # net-delta pass.
        ins, dels = net_delta(live.batches[lagging.seq:])
        answer, _ = incremental_update("pr", live, lagging, ins, dels)
        np.testing.assert_allclose(
            answer,
            cold_answer("pr", live.materialize()),
            atol=PR_ATOL,
            rtol=0,
        )

    def test_reinsert_after_compaction_restores_every_copy(self):
        base = rmat(7, 8, seed=3)
        u, v = (int(x) for x in multi_copy_pairs(base)[0])
        copies = int(np.count_nonzero(base.neighbors(u) == v))
        assert copies >= 2
        overlay = DeltaOverlayGraph(base, base_digest="test")
        overlay.apply(EdgeDeltaBatch(deletes=[(u, v)]))
        assert overlay.num_edges == base.num_edges - copies
        overlay.apply(EdgeDeltaBatch(inserts=[(u, v)]))
        assert overlay.num_edges == base.num_edges
        assert np.count_nonzero(overlay.neighbors(u) == v) == copies
        # A delete of the overlay-inserted pair removes every copy.
        overlay.apply(EdgeDeltaBatch(deletes=[(u, v)]))
        assert overlay.num_edges == base.num_edges - copies
        assert not overlay.has_edge(u, v)
        assert overlay.materialize().num_edges == overlay.num_edges
