"""NOVA's BSP execution path: superstep structure and conservation."""

import numpy as np
import pytest

from repro.core.engine import NovaEngine
from repro.core.system import NovaSystem
from repro.workloads import get_workload


class TestBspStructure:
    def test_pr_superstep_count(self, small_config, rmat_graph):
        run = NovaSystem(small_config, rmat_graph).run("pr", max_supersteps=7)
        # Either converged early or hit the cap.
        assert 1 <= run.stats.get("supersteps") <= 7

    def test_bc_supersteps_cover_both_phases(self, small_config, rmat_graph,
                                             rmat_source):
        from repro.workloads.reference import bfs_distances

        run = NovaSystem(small_config, rmat_graph).run(
            "bc", source=rmat_source
        )
        levels, _ = bfs_distances(rmat_graph, rmat_source)
        finite = levels[levels < np.iinfo(np.int64).max]
        depth = int(finite.max())
        # Forward: depth+1 supersteps (incl. the empty one); backward:
        # depth supersteps.
        assert run.stats.get("supersteps") >= 2 * depth

    def test_bsp_messages_fully_drain(self, small_config, rmat_graph):
        engine = NovaEngine(
            small_config, rmat_graph, get_workload("pr", max_supersteps=4)
        )
        run = engine.run()
        assert not engine.inbox_pool.any()
        assert not engine.tracker.any_work()
        assert run.messages_processed == run.messages_sent

    def test_pr_message_count_is_supersteps_times_edges(
        self, small_config, rmat_graph
    ):
        run = NovaSystem(small_config, rmat_graph).run("pr", max_supersteps=3)
        assert run.messages_sent == 3 * rmat_graph.num_edges

    def test_bc_traverses_cone_twice(self, small_config, rmat_graph,
                                     rmat_source):
        """Forward cone + backward (transpose) cone -- the paper's
        'doubles the number of edges' note."""
        program = get_workload("bfs")
        _, forward_cone = program.reference(rmat_graph, rmat_source)
        run = NovaSystem(small_config, rmat_graph).run(
            "bc", source=rmat_source
        )
        assert run.edges_traversed >= forward_cone
        assert run.edges_traversed <= 3 * forward_cone

    def test_bsp_breakdown_still_sums(self, small_config, rmat_graph):
        run = NovaSystem(small_config, rmat_graph).run("pr", max_supersteps=3)
        assert sum(run.breakdown.values()) == pytest.approx(
            run.elapsed_seconds
        )
