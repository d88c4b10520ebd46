"""Unit tests for the metrics recorders (repro.obs.recorder)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.obs.config import ObsConfig, make_recorder
from repro.obs.recorder import (
    BOTTLENECK_NAMES,
    BOUND_CLASSES,
    NULL_RECORDER,
    NullRecorder,
    PhaseProfiler,
    QuantumObservation,
    TimelineRecorder,
    classify_bottleneck,
    timed_call,
)


def make_obs(
    index,
    duration=1e-6,
    bottleneck="hbm",
    drained=0,
    coalesced=0,
    spilled=0,
    hits=0,
    misses=0,
    backlog=0,
    occupancy=0,
    tracked=0,
):
    return QuantumObservation(
        index=index,
        duration_seconds=duration,
        bottleneck=bottleneck,
        hbm_util=np.array([0.5, 1.0]),
        ddr_util=np.array([0.25]),
        reduce_fu_util=np.array([0.125]),
        propagate_fu_util=np.array([0.0625]),
        fabric_util=0.75,
        messages_drained=drained,
        coalesced=coalesced,
        spilled=spilled,
        prefetch_hits=hits,
        prefetch_misses=misses,
        inbox_backlog=backlog,
        buffer_occupancy=occupancy,
        tracked_blocks=tracked,
    )


class TestClassification:
    def test_bandwidth_resources(self):
        for name in ("hbm", "ddr", "fabric"):
            assert classify_bottleneck(name) == "bandwidth"

    def test_compute_resources(self):
        for name in ("reduce_fu", "propagate_fu"):
            assert classify_bottleneck(name) == "compute"

    def test_latency_is_queue_bound(self):
        assert classify_bottleneck("latency") == "queue"

    def test_every_bottleneck_has_a_class(self):
        for name in BOTTLENECK_NAMES:
            assert classify_bottleneck(name) in BOUND_CLASSES


class TestNullRecorder:
    def test_disabled_and_inert(self):
        rec = NullRecorder()
        assert rec.enabled is False
        assert rec.phase_profiler is None
        rec.on_quantum(make_obs(0))
        assert rec.timeline_dict() is None

    def test_shared_singleton(self):
        assert isinstance(NULL_RECORDER, NullRecorder)


class TestTimelineRecorder:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TimelineRecorder(capacity=0)

    def test_differentiates_cumulative_counters(self):
        rec = TimelineRecorder(capacity=8)
        rec.on_quantum(make_obs(0, drained=10, spilled=3, hits=2))
        rec.on_quantum(make_obs(1, drained=25, spilled=3, hits=7))
        cols = rec.timeline_dict()["columns"]
        assert cols["messages_drained"] == [10, 15]
        assert cols["spilled"] == [3, 0]
        assert cols["prefetch_hits"] == [2, 5]

    def test_totals_keep_final_counter_values(self):
        rec = TimelineRecorder(capacity=2)
        for i, drained in enumerate((5, 12, 40)):
            rec.on_quantum(make_obs(i, drained=drained))
        totals = rec.timeline_dict()["totals"]
        assert totals["counters"]["messages_drained"] == 40

    def test_ring_wraparound_keeps_newest_in_order(self):
        rec = TimelineRecorder(capacity=4)
        for i in range(10):
            rec.on_quantum(make_obs(i, duration=1e-6 * (i + 1)))
        d = rec.timeline_dict()
        assert d["quanta"] == 10
        assert d["stored"] == 4
        assert d["dropped"] == 6
        assert d["columns"]["index"] == [6, 7, 8, 9]
        # Totals cover all ten quanta, not just the stored window.
        assert d["totals"]["elapsed_seconds"] == pytest.approx(55e-6)

    def test_class_and_resource_attribution(self):
        rec = TimelineRecorder(capacity=16)
        rec.on_quantum(make_obs(0, duration=3e-6, bottleneck="hbm"))
        rec.on_quantum(make_obs(1, duration=2e-6, bottleneck="reduce_fu"))
        rec.on_quantum(make_obs(2, duration=1e-6, bottleneck="latency"))
        totals = rec.timeline_dict()["totals"]
        assert totals["class_quanta"] == {"bandwidth": 1, "compute": 1, "queue": 1}
        assert totals["class_seconds"]["bandwidth"] == pytest.approx(3e-6)
        assert totals["resource_quanta"]["reduce_fu"] == 1
        assert totals["resource_seconds"]["latency"] == pytest.approx(1e-6)

    def test_util_columns_store_max_and_mean(self):
        rec = TimelineRecorder(capacity=4)
        rec.on_quantum(make_obs(0))
        cols = rec.timeline_dict()["columns"]
        assert cols["hbm_util"] == [1.0]
        assert cols["hbm_util_mean"] == [0.75]
        assert cols["fabric_util"] == [0.75]

    def test_bottleneck_column_is_names_not_codes(self):
        rec = TimelineRecorder(capacity=4)
        rec.on_quantum(make_obs(0, bottleneck="fabric"))
        rec.on_quantum(make_obs(1, bottleneck="latency"))
        cols = rec.timeline_dict()["columns"]
        assert cols["bottleneck"] == ["fabric", "latency"]
        assert cols["bound"] == ["bandwidth", "queue"]

    def test_export_is_pure_json(self):
        rec = TimelineRecorder(capacity=4)
        for i in range(6):
            rec.on_quantum(make_obs(i, drained=i * 3))
        d = rec.timeline_dict()
        assert json.loads(json.dumps(d)) == d


class TestPhaseProfiler:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            PhaseProfiler(every=0)

    def test_sampling_cadence(self):
        prof = PhaseProfiler(every=4)
        sampled = [i for i in range(12) if prof.should_sample(i)]
        assert sampled == [0, 4, 8]

    def test_timed_call_returns_and_accumulates(self):
        prof = PhaseProfiler(every=1)
        assert timed_call(prof, "mpu", lambda a, b: a + b, 2, 3) == 5
        timed_call(prof, "close", lambda: None)
        assert prof.samples == {"mpu": 1, "close": 1}
        assert prof.total_ns["mpu"] >= 0
        assert prof.quanta_sampled == 1  # only "close" ends a quantum

    def test_render_and_to_dict(self):
        prof = PhaseProfiler(every=2)
        prof.add("mpu", 1000)
        prof.add("close", 3000)
        d = prof.to_dict()
        assert d["phases"]["mpu"]["mean_ns"] == 1000
        assert "phase profile" in prof.render()
        assert PhaseProfiler(every=1).render() == "phase profile: no samples"

    @pytest.mark.parametrize("engine", ["vectorized", "scalar"])
    def test_engines_sample_phases_without_observing_quanta(
        self, engine, small_config, rmat_graph, rmat_source
    ):
        from repro.core.system import NovaSystem

        class Sampling(PhaseProfiler):
            def on_quantum(self, obs):
                raise AssertionError("built a quantum observation")

        prof = Sampling(every=1)
        run = NovaSystem(small_config, rmat_graph, engine=engine).run(
            "bfs", source=rmat_source, recorder=prof
        )
        assert run.timeline is None
        assert prof.quanta_sampled == run.quanta
        assert set(prof.samples) == {"mpu", "vmu", "mgu", "close"}


class TestObsConfig:
    def test_inactive_default(self):
        assert ObsConfig().active is False
        assert make_recorder(ObsConfig()) is None
        assert make_recorder(None) is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            ObsConfig(timeline_capacity=0)
        with pytest.raises(ConfigError):
            ObsConfig(phase_sample_every=-1)

    def test_timeline_recorder(self):
        rec = make_recorder(ObsConfig(timeline=True, timeline_capacity=7))
        assert isinstance(rec, TimelineRecorder)
        assert rec.capacity == 7
        assert rec.phase_profiler is None

    def test_phases_only(self):
        rec = make_recorder(ObsConfig(phases=True, phase_sample_every=3))
        assert isinstance(rec, PhaseProfiler)
        assert rec.every == 3
        # Engines sample phases through phase_profiler; a profiler
        # alone observes no quantum.
        assert rec.enabled is False
        assert rec.phase_profiler is rec

    def test_timeline_with_phases(self):
        rec = make_recorder(ObsConfig(timeline=True, phases=True))
        assert isinstance(rec, TimelineRecorder)
        assert isinstance(rec.phase_profiler, PhaseProfiler)
