"""DeltaOverlayGraph: strict apply semantics, adjacency equivalence
with materialization, and version digest chaining."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StreamError
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat, with_uniform_weights
from repro.stream.delta import EdgeDeltaBatch
from repro.stream.overlay import DeltaOverlayGraph, chain_digest


def tiny_base() -> CSRGraph:
    # 0->1, 0->2, 1->3, 2->3, 3->4; vertex 5 isolated.
    src = np.array([0, 0, 1, 2, 3])
    dst = np.array([1, 2, 3, 3, 4])
    return CSRGraph.from_edges(src, dst, 6)


class TestApply:
    def test_insert_and_delete_visible(self):
        ov = DeltaOverlayGraph(tiny_base())
        ov.apply(EdgeDeltaBatch(inserts=[(5, 0)], deletes=[(0, 1)]))
        assert ov.has_edge(5, 0)
        assert not ov.has_edge(0, 1)
        assert ov.num_edges == 5
        assert ov.neighbors(0).tolist() == [2]
        assert ov.neighbors(5).tolist() == [0]

    def test_insert_existing_edge_rejected(self):
        ov = DeltaOverlayGraph(tiny_base())
        with pytest.raises(StreamError, match="already present"):
            ov.apply(EdgeDeltaBatch(inserts=[(0, 1)]))

    def test_delete_missing_edge_rejected(self):
        ov = DeltaOverlayGraph(tiny_base())
        with pytest.raises(StreamError, match="no such edge"):
            ov.apply(EdgeDeltaBatch(deletes=[(5, 0)]))

    def test_out_of_range_endpoint_rejected(self):
        ov = DeltaOverlayGraph(tiny_base())
        with pytest.raises(StreamError, match="out of range"):
            ov.apply(EdgeDeltaBatch(inserts=[(0, 6)]))

    def test_rejected_batch_leaves_overlay_untouched(self):
        ov = DeltaOverlayGraph(tiny_base())
        before = ov.version_digest
        with pytest.raises(StreamError):
            # Valid insert + invalid delete: all-or-nothing.
            ov.apply(EdgeDeltaBatch(inserts=[(5, 0)], deletes=[(5, 1)]))
        assert ov.version_digest == before
        assert not ov.has_edge(5, 0)
        assert ov.delta_seq == 0

    def test_reinsert_of_deleted_base_edge_undeletes(self):
        ov = DeltaOverlayGraph(tiny_base())
        ov.apply(EdgeDeltaBatch(deletes=[(0, 1)]))
        ov.apply(EdgeDeltaBatch(inserts=[(0, 1)]))
        assert ov.has_edge(0, 1)
        assert ov.num_edges == 5  # one copy back, not a stacked extra
        assert ov.neighbors(0).tolist() == [1, 2]

    def test_delete_of_inserted_extra_removes_it(self):
        ov = DeltaOverlayGraph(tiny_base())
        ov.apply(EdgeDeltaBatch(inserts=[(5, 0)]))
        ov.apply(EdgeDeltaBatch(deletes=[(5, 0)]))
        assert not ov.has_edge(5, 0)
        assert ov.num_edges == 5
        assert ov.neighbors(5).tolist() == []

    def test_weighted_base_rejected(self):
        weighted = with_uniform_weights(tiny_base(), seed=1)
        with pytest.raises(StreamError, match="unweighted"):
            DeltaOverlayGraph(weighted)


class TestVersionDigest:
    def test_chain_is_deterministic(self):
        batch = EdgeDeltaBatch(inserts=[(5, 0)])
        a = DeltaOverlayGraph(tiny_base(), base_digest="d0")
        b = DeltaOverlayGraph(tiny_base(), base_digest="d0")
        assert a.apply(batch) == b.apply(EdgeDeltaBatch(inserts=[(5, 0)]))
        assert a.version_digest == chain_digest("d0", batch)

    def test_chain_depends_on_order(self):
        b1 = EdgeDeltaBatch(inserts=[(5, 0)])
        b2 = EdgeDeltaBatch(inserts=[(5, 1)])
        a = DeltaOverlayGraph(tiny_base(), base_digest="d0")
        b = DeltaOverlayGraph(tiny_base(), base_digest="d0")
        a.apply(b1), a.apply(b2)
        b.apply(b2), b.apply(b1)
        assert a.version_digest != b.version_digest


class TestMaterialize:
    def test_matches_overlay_adjacency(self):
        g = rmat(8, 4, seed=3)
        ov = DeltaOverlayGraph(g)
        rng = np.random.default_rng(0)
        # Delete a handful of real edges, insert a handful of absent ones.
        src = np.asarray(g.edge_sources())
        dst = np.asarray(g.col_idx)
        picks = rng.choice(g.num_edges, size=8, replace=False)
        seen = set()
        deletes = []
        for i in picks:
            pair = (int(src[i]), int(dst[i]))
            if pair not in seen:
                seen.add(pair)
                deletes.append(pair)
        inserts = []
        while len(inserts) < 8:
            u = int(rng.integers(g.num_vertices))
            v = int(rng.integers(g.num_vertices))
            if not ov.has_edge(u, v) and (u, v) not in inserts:
                inserts.append((u, v))
        ov.apply(EdgeDeltaBatch(inserts=inserts, deletes=deletes))
        merged = ov.materialize()
        assert merged.num_edges == ov.num_edges
        for v in range(g.num_vertices):
            assert np.array_equal(merged.neighbors(v), ov.neighbors(v)), v
