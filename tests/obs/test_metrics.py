"""Tests for the typed metrics registry and Prometheus exposition."""

from __future__ import annotations

import math
import threading

import pytest

from repro.obs.counters import (
    DEFAULT_BUCKETS,
    DEFAULT_HISTOGRAMS,
    FAULT_COUNTERS,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
)
from repro.obs.prom import (
    prom_name,
    render_prometheus,
    validate_exposition,
)


class TestHistogram:
    def test_bucket_ladder_shape(self):
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-4)
        assert DEFAULT_BUCKETS[-1] == pytest.approx(1e-4 * 10 ** 6)
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert len(DEFAULT_BUCKETS) == 13

    def test_observe_places_values(self):
        hist = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 0.9, 5.0, 100.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(106.4)
        assert snap["buckets"] == [[1.0, 2], [10.0, 3], ["+Inf", 4]]

    def test_boundary_value_goes_to_its_bucket(self):
        # le is an inclusive upper bound (bisect_left: value == bound
        # lands in the bucket whose edge it is).
        hist = Histogram(bounds=(1.0, 10.0))
        hist.observe(1.0)
        assert hist.snapshot()["buckets"][0] == [1.0, 1]

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 0.5))
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))

    def test_snapshot_plus_inf_equals_count(self):
        hist = Histogram()
        for i in range(25):
            hist.observe(10.0 ** (i % 5 - 3))
        snap = hist.snapshot()
        assert snap["buckets"][-1] == ["+Inf", snap["count"]]


class TestQuantile:
    def test_empty_is_none(self):
        assert histogram_quantile(Histogram().snapshot(), 0.5) is None

    def test_interpolates_within_bucket(self):
        hist = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (1.5, 1.5, 1.5, 3.0):
            hist.observe(value)
        snap = hist.snapshot()
        # Ranks 1..3 fall in the (1, 2] bucket; rank 2 is 2/3 through.
        assert histogram_quantile(snap, 0.5) == pytest.approx(1 + 2 / 3)
        # p95 -> rank 3.8 inside (2, 4].
        assert histogram_quantile(snap, 0.95) == pytest.approx(
            2 + 2 * (3.8 - 3)
        )

    def test_overflow_clamps_to_last_finite_edge(self):
        hist = Histogram(bounds=(1.0,))
        hist.observe(99.0)
        assert histogram_quantile(hist.snapshot(), 0.99) == 1.0


class TestMetricsRegistry:
    def test_counter_backcompat(self):
        reg = MetricsRegistry()
        reg.increment("sweep.failures")
        reg.increment("sweep.failures", 2)
        assert reg.get("sweep.failures") == 3
        assert reg.snapshot() == {"sweep.failures": 3}

    def test_gauges_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("service.queue_depth", 4)
        reg.set_gauge("service.queue_depth", 2)
        assert reg.gauge("service.queue_depth") == 2.0
        assert reg.gauges() == {"service.queue_depth": 2.0}

    def test_gauge_ignores_nan(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1.0)
        reg.set_gauge("g", math.nan)
        assert reg.gauge("g") == 1.0

    def test_observe_auto_declares(self):
        reg = MetricsRegistry()
        reg.observe("service.run_seconds", 0.25)
        snap = reg.histograms()["service.run_seconds"]
        assert snap["count"] == 1

    def test_time_histogram(self):
        reg = MetricsRegistry()
        with reg.time_histogram("timed"):
            pass
        snap = reg.histograms()["timed"]
        assert snap["count"] == 1
        assert snap["sum"] >= 0.0

    def test_reset_preserves_declared_families(self):
        reg = MetricsRegistry()
        reg.declare_histogram("kept")
        reg.observe("kept", 1.0)
        reg.increment("c")
        reg.set_gauge("g", 1.0)
        reg.reset()
        assert reg.snapshot() == {}
        assert reg.gauges() == {}
        snap = reg.histograms()["kept"]
        assert snap["count"] == 0

    def test_default_families_predeclared_on_global(self):
        hists = FAULT_COUNTERS.histograms()
        for name in DEFAULT_HISTOGRAMS:
            assert name in hists
        assert len(DEFAULT_HISTOGRAMS) >= 5

    def test_thread_safety_smoke(self):
        reg = MetricsRegistry()

        def work():
            for _ in range(500):
                reg.increment("c")
                reg.observe("h", 0.001)
                reg.set_gauge("g", 1.0)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.get("c") == 2000
        assert reg.histograms()["h"]["count"] == 2000


class TestPromRender:
    def test_name_sanitization(self):
        assert prom_name("service.queue_wait_seconds") == (
            "repro_service_queue_wait_seconds"
        )
        assert prom_name("a-b.c") == "repro_a_b_c"

    def test_render_and_validate_roundtrip(self):
        reg = MetricsRegistry()
        for name in DEFAULT_HISTOGRAMS:
            reg.declare_histogram(name)
        reg.increment("service.submitted", 3)
        reg.set_gauge("service.queue_depth", 2)
        for value in (0.001, 0.02, 5.0):
            reg.observe("service.run_seconds", value)
        text = render_prometheus(
            reg.snapshot(), reg.gauges(), reg.histograms()
        )
        errors, families = validate_exposition(text)
        assert errors == []
        assert families["repro_service_submitted_total"] == "counter"
        assert families["repro_service_queue_depth"] == "gauge"
        histogram_families = [
            name for name, kind in families.items() if kind == "histogram"
        ]
        assert len(histogram_families) >= 5
        assert 'le="+Inf"' in text
        assert "repro_service_run_seconds_count 3" in text

    def test_counter_total_suffix_and_help(self):
        text = render_prometheus({"fleet.dispatched": 7}, {}, {})
        assert "# TYPE repro_fleet_dispatched_total counter" in text
        assert "repro_fleet_dispatched_total 7" in text
        assert text.startswith("# HELP ")


class TestPromValidator:
    def test_catches_sample_before_type(self):
        errors, _ = validate_exposition("repro_x_total 1\n")
        assert any("before TYPE" in e for e in errors)

    def test_catches_malformed_sample(self):
        text = "# TYPE repro_x counter\nrepro_x one_two\n"
        errors, _ = validate_exposition(text)
        assert any("malformed value" in e for e in errors)

    def test_catches_non_cumulative_buckets(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            'repro_h_bucket{le="2"} 3\n'
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_sum 1\n"
            "repro_h_count 5\n"
        )
        errors, _ = validate_exposition(text)
        assert any("not cumulative" in e for e in errors)

    def test_catches_inf_count_mismatch(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 2\n'
            'repro_h_bucket{le="+Inf"} 2\n'
            "repro_h_sum 1\n"
            "repro_h_count 3\n"
        )
        errors, _ = validate_exposition(text)
        assert any("+Inf bucket" in e for e in errors)

    def test_catches_missing_inf(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 2\n'
            "repro_h_sum 1\n"
            "repro_h_count 2\n"
        )
        errors, _ = validate_exposition(text)
        assert any("+Inf" in e for e in errors)

    def test_catches_stray_whitespace(self):
        errors, _ = validate_exposition("  # TYPE repro_x counter\n")
        assert any("stray whitespace" in e for e in errors)
