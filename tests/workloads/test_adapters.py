"""BSP adapter: async workloads under synchronous execution."""

import numpy as np
import pytest

from repro.core.system import NovaSystem
from repro.errors import WorkloadError
from repro.workloads import BSPAdapter, get_workload
from repro.workloads.driver import run_functional


class TestAdapterSemantics:
    def test_wraps_async_only(self):
        with pytest.raises(WorkloadError):
            BSPAdapter(get_workload("pr"))

    def test_metadata_propagates(self):
        adapter = BSPAdapter(get_workload("sssp"))
        assert adapter.name == "sssp-bsp"
        assert adapter.mode == "bsp"
        assert adapter.needs_weights

    def test_functional_fixed_point_matches_async(self, rmat_graph, rmat_source):
        sync = run_functional(
            BSPAdapter(get_workload("bfs")), rmat_graph, rmat_source
        )
        expected, _ = get_workload("bfs").reference(rmat_graph, rmat_source)
        assert np.array_equal(sync.result, expected)

    def test_cc_under_bsp(self, symmetric_graph):
        sync = run_functional(BSPAdapter(get_workload("cc")), symmetric_graph, None)
        expected, _ = get_workload("cc").reference(symmetric_graph, None)
        assert np.array_equal(sync.result, expected)


class TestAdapterOnEngine:
    def test_bfs_bsp_on_nova(self, small_config, rmat_graph, rmat_source):
        run = NovaSystem(small_config, rmat_graph).run(
            BSPAdapter(get_workload("bfs")),
            source=rmat_source,
            compute_reference=True,
        )
        assert run.stats.get("supersteps") > 1

    def test_sssp_bsp_on_nova(self, small_config, weighted_graph, rmat_source):
        NovaSystem(small_config, weighted_graph).run(
            BSPAdapter(get_workload("sssp")),
            source=rmat_source,
            compute_reference=True,
        )

    def test_bsp_is_perfectly_work_efficient_for_bfs(
        self, small_config, rmat_graph, rmat_source
    ):
        """Level-synchronous BFS traverses each cone edge exactly once."""
        program = get_workload("bfs")
        run = NovaSystem(small_config, rmat_graph).run(
            BSPAdapter(program), source=rmat_source
        )
        _, sequential = program.reference(rmat_graph, rmat_source)
        assert run.edges_traversed == sequential

    def test_supersteps_track_bfs_depth(self, small_config, grid_graph):
        from repro.workloads.reference import bfs_distances

        run = NovaSystem(small_config, grid_graph).run(
            BSPAdapter(get_workload("bfs")), source=0
        )
        levels, _ = bfs_distances(grid_graph, 0)
        depth = int(levels[levels < np.iinfo(np.int64).max].max())
        # One superstep per BFS level (plus the final empty one).
        assert abs(run.stats.get("supersteps") - (depth + 1)) <= 1
