"""PR-delta: residual-push PageRank (the paper's rejected async variant)."""

import numpy as np
import pytest

from repro.core.system import NovaSystem
from repro.workloads import PageRankDelta, get_workload
from repro.workloads.driver import run_functional


class TestConvergence:
    def test_matches_power_iteration(self, rmat_graph):
        program = PageRankDelta(threshold=1e-9)
        run = run_functional(program, rmat_graph, None, max_rounds=100_000)
        expected, _ = program.reference(rmat_graph, None)
        assert np.abs(run.result - expected).max() < 1e-6

    def test_total_mass_bounded(self, rmat_graph):
        run = run_functional(PageRankDelta(threshold=1e-8), rmat_graph, None)
        # Push PR leaks at dangling vertices: total mass in (0, 1].
        assert 0.0 < run.result.sum() <= 1.0 + 1e-9

    def test_coarser_threshold_less_work(self, rmat_graph):
        fine = run_functional(PageRankDelta(threshold=1e-8), rmat_graph, None)
        coarse = run_functional(PageRankDelta(threshold=1e-4), rmat_graph, None)
        assert coarse.messages < fine.messages

    def test_registry_name(self):
        assert isinstance(get_workload("pr-delta"), PageRankDelta)
        assert get_workload("pr-delta").mode == "async"


class TestOnEngine:
    def test_engine_matches_oracle(self, small_config, rmat_graph):
        program = PageRankDelta(threshold=1e-9)
        run = NovaSystem(small_config, rmat_graph).run(program)
        expected, _ = program.reference(rmat_graph, None)
        assert np.abs(run.result - expected).max() < 1e-6

    def test_order_changes_work_not_answer(self, rmat_graph):
        """The paper's Section V observation, in miniature."""
        from repro.sim.config import scaled_config

        cfg = scaled_config(num_gpns=1, scale=1 / 1024)
        results = []
        messages = []
        for placement in ("random", "locality"):
            run = NovaSystem(cfg, rmat_graph, placement=placement).run(
                "pr-delta", threshold=1e-5
            )
            results.append(run.result)
            messages.append(run.messages_sent)
        # Same answer (to the threshold's tolerance)...
        assert np.abs(results[0] - results[1]).max() < 1e-4
        # ...with order-dependent work (may coincide on tiny graphs, so
        # only sanity-check the counts are positive and comparable).
        assert all(m > 0 for m in messages)

    def test_harvest_zeroes_residual(self, tiny_graph):
        program = PageRankDelta()
        state = program.create_state(tiny_graph, None)
        vertices = np.array([0, 1])
        before = state["residual"][vertices].copy()
        pushed = program.snapshot(state, vertices)
        assert (state["residual"][vertices] == 0).all()
        assert (state["rank"][vertices] == before).all()
        assert np.allclose(
            pushed, 0.85 * before / state["safe_deg"][vertices]
        )
