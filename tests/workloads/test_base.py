"""Vertex-program base utilities: edge expansion, id dedupe, metadata."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import WorkloadError
from repro.graph.csr import CSRGraph
from repro.workloads import get_workload, workload_names
from repro.workloads.base import expand_edges, unique_ids


class TestExpandEdges:
    def test_full_ranges(self, tiny_graph):
        owner, dests, weights = expand_edges(tiny_graph, np.array([0, 3]))
        assert list(owner) == [0, 0, 1]
        assert list(dests) == [1, 2, 4]
        assert weights is None

    def test_partial_ranges(self, tiny_graph):
        start, end = tiny_graph.edge_range(0)
        owner, dests, _ = expand_edges(
            tiny_graph,
            np.array([0]),
            starts=np.array([start + 1]),
            ends=np.array([end]),
        )
        assert list(dests) == [2]

    def test_empty_vertices(self, tiny_graph):
        owner, dests, _ = expand_edges(tiny_graph, np.array([], dtype=np.int64))
        assert owner.shape == (0,)
        assert dests.shape == (0,)

    def test_zero_degree_vertices(self, tiny_graph):
        owner, dests, _ = expand_edges(tiny_graph, np.array([5, 4]))
        assert dests.shape == (0,)

    def test_weights_follow_edges(self, weighted_graph):
        vertices = np.array([0, 1, 2])
        owner, dests, weights = expand_edges(weighted_graph, vertices)
        assert weights.shape == dests.shape
        # Check against direct slicing.
        expected = np.concatenate(
            [
                weighted_graph.weights[
                    weighted_graph.row_ptr[v] : weighted_graph.row_ptr[v + 1]
                ]
                for v in vertices
            ]
        )
        assert np.array_equal(weights, expected)

    def test_rejects_inverted_range(self, tiny_graph):
        with pytest.raises(WorkloadError):
            expand_edges(
                tiny_graph, np.array([0]), starts=np.array([3]), ends=np.array([1])
            )

    @given(vertex_list=st.lists(st.integers(0, 5), min_size=0, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_expansion(self, tiny_graph, vertex_list):
        vertices = np.asarray(vertex_list, dtype=np.int64)
        owner, dests, _ = expand_edges(tiny_graph, vertices)
        naive_owner, naive_dests = [], []
        for i, v in enumerate(vertex_list):
            for u in tiny_graph.neighbors(v):
                naive_owner.append(i)
                naive_dests.append(int(u))
        assert list(owner) == naive_owner
        assert list(dests) == naive_dests


    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_partial_ranges_match_per_range_loop(self, weighted_graph, data):
        """Arbitrary sub-ranges (partial, empty, whole) of weighted rows,
        in any vertex order with repeats: the MGU's active-buffer pops."""
        graph = weighted_graph
        vertices = data.draw(
            st.lists(st.integers(0, graph.num_vertices - 1), max_size=30)
        )
        starts, ends = [], []
        for v in vertices:
            lo, hi = int(graph.row_ptr[v]), int(graph.row_ptr[v + 1])
            start = data.draw(st.integers(lo, hi))
            starts.append(start)
            ends.append(data.draw(st.integers(start, hi)))
        owner, dests, weights = expand_edges(
            graph,
            np.asarray(vertices, dtype=np.int64),
            np.asarray(starts, dtype=np.int64),
            np.asarray(ends, dtype=np.int64),
        )
        want_owner, want_dests, want_weights = [], [], []
        for i, (start, end) in enumerate(zip(starts, ends)):
            for offset in range(start, end):
                want_owner.append(i)
                want_dests.append(int(graph.col_idx[offset]))
                want_weights.append(float(graph.weights[offset]))
        assert owner.tolist() == want_owner
        assert dests.tolist() == want_dests
        assert weights.tolist() == want_weights


class TestUniqueIds:
    @given(
        arrays(
            dtype=st.sampled_from([np.int64, np.int32, np.uint16, np.int8]),
            shape=st.integers(0, 40),
        )
    )
    @example(np.empty(0, dtype=np.int64))
    @example(np.array([7], dtype=np.int64))
    @settings(max_examples=120, deadline=None)
    def test_matches_np_unique(self, ids):
        got = unique_ids(ids)
        want = np.unique(ids)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()

    def test_input_untouched(self):
        ids = np.array([3, 1, 3, 2], dtype=np.int64)
        assert unique_ids(ids).tolist() == [1, 2, 3]
        assert ids.tolist() == [3, 1, 3, 2]

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
    @pytest.mark.parametrize("bound", [0, 1, 4, 64, 1000])
    def test_bitmap_path_matches_sort_path(self, dtype, bound):
        """``bound`` sends a batch of ``bound / 4`` ids or more to the
        presence bitmap: batch sizes on both sides of that threshold,
        empty ones included, give what the sort path gives."""
        rng = np.random.default_rng(bound)
        threshold = -(-bound // 4)  # smallest batch read off the bitmap
        sizes = {0, threshold, bound, 3 * bound}
        if bound:
            sizes |= {threshold - 1, threshold + 1}
        for size in sorted(sizes):
            for _ in range(5):
                ids = rng.integers(0, max(bound, 1), size=size).astype(dtype)
                got = unique_ids(ids, bound)
                want = unique_ids(ids)
                assert got.dtype == want.dtype == ids.dtype
                assert got.tolist() == want.tolist() == np.unique(ids).tolist()


class TestProgramMetadata:
    def test_modes(self):
        assert get_workload("bfs").mode == "async"
        assert get_workload("cc").mode == "async"
        assert get_workload("sssp").mode == "async"
        assert get_workload("pr").mode == "bsp"
        assert get_workload("bc").mode == "bsp"

    def test_registry_covers_paper_workloads(self):
        assert workload_names() == ["bfs", "cc", "sssp", "pr", "bc"]

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            get_workload("apsp")

    def test_async_program_rejects_superstep(self, tiny_graph):
        program = get_workload("bfs")
        state = program.create_state(tiny_graph, 0)
        with pytest.raises(WorkloadError):
            program.superstep_end(state)

    def test_weight_requirement_enforced(self, tiny_graph):
        with pytest.raises(WorkloadError):
            get_workload("sssp").create_state(tiny_graph, 0)
