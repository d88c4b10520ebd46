"""Per-quantum execution traces: the engine's timeline recording."""

import numpy as np
import pytest

from repro.core.engine import NovaEngine
from repro.obs import BottleneckReport, ObsConfig, make_recorder
from repro.workloads import get_workload


@pytest.fixture
def traced_run(small_config, rmat_graph, rmat_source):
    engine = NovaEngine(
        small_config, rmat_graph, get_workload("bfs"),
        source=rmat_source, recorder=make_recorder(ObsConfig(timeline=True)),
    )
    result = engine.run()
    return result.timeline["columns"], result


class TestEngineTracing:
    def test_one_sample_per_quantum(self, traced_run):
        columns, result = traced_run
        assert columns["index"] == list(range(result.quanta))

    def test_durations_sum_to_elapsed(self, traced_run):
        columns, result = traced_run
        total = sum(columns["duration_seconds"])
        assert total == pytest.approx(result.elapsed_seconds)

    def test_work_columns_sum_to_totals(self, traced_run):
        columns, result = traced_run
        assert sum(columns["messages_drained"]) == result.messages_processed
        assert sum(columns["spilled"]) == result.activations

    def test_start_times_monotone(self, traced_run):
        columns, _ = traced_run
        starts = np.cumsum(columns["duration_seconds"])
        assert (np.diff(starts) > 0).all()

    def test_bottleneck_shares_sum_to_one(self, traced_run):
        columns, result = traced_run
        report = BottleneckReport.from_timeline(result.timeline)
        assert sum(report.resource_shares().values()) == pytest.approx(1.0)
        known = {"hbm", "ddr", "reduce_fu", "propagate_fu", "fabric", "latency"}
        assert set(columns["bottleneck"]) <= known

    def test_machine_drains_at_end(self, traced_run):
        columns, _ = traced_run
        assert columns["inbox_backlog"][-1] == 0 or (
            columns["tracked_blocks"][-1] == 0
        )

    def test_summary_renders(self, traced_run):
        _, result = traced_run
        text = BottleneckReport.from_timeline(result.timeline).render()
        assert "quanta" in text
        assert "bottleneck" in text

    def test_disabled_by_default(self, small_config, rmat_graph, rmat_source):
        engine = NovaEngine(
            small_config, rmat_graph, get_workload("bfs"), source=rmat_source
        )
        assert engine.run().timeline is None

