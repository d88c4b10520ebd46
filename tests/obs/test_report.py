"""Cross-run sweep aggregation (repro.obs.report.SweepReport).

The synthetic sweep below is deterministic, so its JSON and markdown
exports are pinned as golden fixtures under ``tests/fixtures/``.  To
regenerate after an intentional schema change::

    PYTHONPATH=src python -m tests.obs.test_report
"""

from __future__ import annotations

import json
import os
import statistics
from types import SimpleNamespace

import pytest

from repro.errors import ConfigError
from repro.obs.profile import BottleneckReport
from repro.obs.report import (
    REPORT_SCHEMA,
    ReportEntry,
    SweepReport,
    entry_from_result,
)

FIXTURE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures"
)
GOLDEN_JSON = os.path.join(FIXTURE_DIR, "golden_sweep_report.json")
GOLDEN_MD = os.path.join(FIXTURE_DIR, "golden_sweep_report.md")


def bottleneck(queue=0.0, bandwidth=0.0, compute=0.0, quanta=10):
    """Hand-built BottleneckReport with the given per-class seconds."""
    elapsed = queue + bandwidth + compute
    return BottleneckReport(
        quanta=quanta,
        elapsed_seconds=elapsed,
        class_seconds={
            "queue": queue, "bandwidth": bandwidth, "compute": compute
        },
        class_quanta={"queue": quanta},
        resource_seconds={
            "latency": queue, "hbm": bandwidth, "reduce_fu": compute
        },
        resource_quanta={"latency": quanta},
        counters={},
    )


def fixture_entries():
    """Deterministic synthetic sweep: 2 workloads, outliers included.

    The bfs group holds six sources where one run is ~2x faster than
    its siblings (a z-score outlier at threshold 2); the pr group holds
    three instrumented runs where one disagrees with the group's
    dominant bottleneck class.
    """
    entries = []
    bfs_gteps = [1.0, 1.01, 0.99, 1.02, 0.98, 2.0]
    for i, gteps in enumerate(bfs_gteps):
        entries.append(
            ReportEntry(
                key=f"bfs{i:02d}", workload="bfs", graph="rmat:9:8", gpns=1,
                source=i, pes=8, status="ok", gteps=gteps,
                elapsed_seconds=0.002, quanta=40, edges_per_quantum=64.0,
                report=bottleneck(queue=6e-4, bandwidth=4e-4, quanta=40),
            )
        )
    pr_reports = [
        bottleneck(queue=8e-4, bandwidth=2e-4, quanta=30),
        bottleneck(queue=7e-4, bandwidth=3e-4, quanta=30),
        bottleneck(queue=1e-4, bandwidth=9e-4, quanta=30),  # divergent
    ]
    for i, rep in enumerate(pr_reports):
        entries.append(
            ReportEntry(
                key=f"pr{i:02d}", workload="pr", graph="rmat:9:8", gpns=2,
                source=None if i == 0 else i, pes=16, status="ok",
                gteps=3.0 + 0.1 * i, elapsed_seconds=0.004, quanta=30,
                edges_per_quantum=128.0 + i, report=rep,
            )
        )
    entries.append(
        ReportEntry(
            key="pr99", workload="pr", graph="rmat:9:8", gpns=2, source=9,
            pes=16, status="failed", failure_kind="timeout",
        )
    )
    entries.append(
        ReportEntry(
            key="cc00", workload="cc", graph="rmat:9:8", gpns=1, pes=8,
        )  # never computed: stays "missing"
    )
    return entries


def fixture_report():
    return SweepReport(fixture_entries(), z_threshold=2.0)


class TestEntryFromResult:
    def test_ok_result(self):
        result = SimpleNamespace(
            gteps=2.5, elapsed_seconds=0.01, quanta=20,
            edges_traversed=1000, timeline=None,
        )
        entry = entry_from_result("k", "bfs", "g", 2, 0, result, pes=16)
        assert entry.status == "ok"
        assert entry.gteps == 2.5
        assert entry.edges_per_quantum == pytest.approx(50.0)
        assert entry.report is None

    def test_failure_duck_typed_by_kind(self):
        failure = SimpleNamespace(kind="timeout")
        entry = entry_from_result("k", "bfs", "g", 2, 0, failure)
        assert entry.status == "failed"
        assert entry.failure_kind == "timeout"
        assert entry.gteps is None

    def test_missing_result(self):
        entry = entry_from_result("k", "bfs", "g", 2, None, None)
        assert entry.status == "missing"

    def test_zero_quanta_result(self):
        result = SimpleNamespace(
            gteps=0.0, elapsed_seconds=0.0, quanta=0,
            edges_traversed=0, timeline=None,
        )
        entry = entry_from_result("k", "bfs", "g", 1, 0, result)
        assert entry.status == "ok"
        assert entry.edges_per_quantum == 0.0


class TestValidation:
    def test_rejects_unknown_dimension(self):
        with pytest.raises(ConfigError):
            SweepReport([], group_by=("workload", "seed"))

    def test_rejects_empty_group_by(self):
        with pytest.raises(ConfigError):
            SweepReport([], group_by=())

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ConfigError):
            SweepReport([], z_threshold=0.0)


class TestAggregation:
    def test_totals(self):
        totals = fixture_report().to_dict()["totals"]
        assert totals == {
            "runs": 11, "ok": 9, "failed": 1, "missing": 1,
            "groups": 3, "with_timeline": 9,
        }

    def test_group_cells(self):
        data = fixture_report().to_dict()
        by_label = {
            tuple(cell["key"].values()): cell for cell in data["groups"]
        }
        bfs = by_label[("bfs", "rmat:9:8", 1)]
        assert bfs["runs"] == bfs["ok"] == 6
        assert bfs["pes"] == 8
        assert bfs["gteps"]["mean"] == pytest.approx(1.1666, rel=1e-3)
        assert bfs["quanta_total"] == 240
        pr = by_label[("pr", "rmat:9:8", 2)]
        assert pr["runs"] == 4 and pr["ok"] == 3 and pr["failed"] == 1

    def test_gteps_hmean_is_graph500s_aggregate(self):
        """hmean is the harmonic mean of the group's ok runs' GTEPS,
        and 0 when any of them is 0."""
        def hmeans(entries):
            return {
                cell["key"]["workload"]: cell["gteps"]["hmean"]
                for cell in SweepReport(entries).to_dict()["groups"]
                if "gteps" in cell
            }

        entries = fixture_entries()
        bfs = [e.gteps for e in entries if e.workload == "bfs"]
        pr = [e.gteps for e in entries
              if e.workload == "pr" and e.status == "ok"]
        got = hmeans(entries)
        assert set(got) == {"bfs", "pr"}  # cc's only run is missing
        assert got["bfs"] == pytest.approx(len(bfs) / sum(1 / g for g in bfs))
        assert got["pr"] == pytest.approx(len(pr) / sum(1 / g for g in pr))
        # The 2x-fast bfs outlier lifts the mean more than the hmean.
        assert got["bfs"] < statistics.fmean(bfs)

        entries[0].gteps = 0.0
        assert hmeans(entries)["bfs"] == 0.0

    def test_bottleneck_shares_aggregate_over_group(self):
        data = fixture_report().to_dict()
        by_label = {
            tuple(cell["key"].values()): cell for cell in data["groups"]
        }
        pr = by_label[("pr", "rmat:9:8", 2)]["bottleneck"]
        # 8+7+1 = 16 queue-seconds of 30 total across the 3 timelines.
        assert pr["class_shares"]["queue"] == pytest.approx(16.0 / 30.0)
        assert pr["class_shares"]["bandwidth"] == pytest.approx(14.0 / 30.0)
        assert pr["dominant_class"] == "queue"
        assert pr["dominant_resource"] == "latency"
        assert pr["dominant_class_counts"] == {"bandwidth": 1, "queue": 2}

    def test_uninstrumented_group_has_no_bottleneck_cell(self):
        entries = [
            ReportEntry(
                key="a", workload="bfs", graph="g", gpns=1, status="ok",
                gteps=1.0, elapsed_seconds=0.1, quanta=5,
                edges_per_quantum=1.0,
            )
        ]
        cell = SweepReport(entries).to_dict()["groups"][0]
        assert cell["bottleneck"] is None


class TestOutliers:
    def test_z_score_outlier_detected(self):
        outliers = fixture_report().outliers()
        z_hits = [o for o in outliers if o["metric"] == "gteps"]
        assert len(z_hits) == 1
        assert z_hits[0]["key"] == "bfs05"
        assert z_hits[0]["z"] > 2.0
        assert "beyond" in z_hits[0]["reason"]

    def test_dominant_class_divergence_detected(self):
        outliers = fixture_report().outliers()
        dom = [o for o in outliers if o["metric"] == "dominant_class"]
        assert len(dom) == 1
        assert dom[0]["key"] == "pr02"
        assert dom[0]["value"] == "bandwidth"
        assert dom[0]["expected"] == "queue"

    def test_zero_spread_group_is_quiet(self):
        entries = [
            ReportEntry(
                key=f"k{i}", workload="bfs", graph="g", gpns=1, source=i,
                status="ok", gteps=1.0, elapsed_seconds=0.1, quanta=5,
                edges_per_quantum=2.0,
            )
            for i in range(5)
        ]
        assert SweepReport(entries).outliers() == []

    def test_small_group_skips_z_screening(self):
        entries = [
            ReportEntry(
                key=f"k{i}", workload="bfs", graph="g", gpns=1, source=i,
                status="ok", gteps=gteps, elapsed_seconds=0.1, quanta=5,
                edges_per_quantum=2.0,
            )
            for i, gteps in enumerate([1.0, 100.0])
        ]
        assert SweepReport(entries, z_threshold=0.5).outliers() == []

    def test_no_majority_no_divergence_flag(self):
        entries = [
            ReportEntry(
                key=f"k{i}", workload="bfs", graph="g", gpns=1, source=i,
                status="ok", gteps=1.0, elapsed_seconds=0.1, quanta=5,
                edges_per_quantum=2.0, report=rep,
            )
            for i, rep in enumerate(
                [bottleneck(queue=1.0), bottleneck(bandwidth=1.0)]
            )
        ]
        assert SweepReport(entries).outliers() == []


class TestExport:
    def test_schema_stamp(self):
        assert fixture_report().to_dict()["schema"] == REPORT_SCHEMA

    def test_json_is_byte_stable(self):
        # Two independent constructions (reversed input order) must
        # serialize identically -- entry order is canonicalized.
        a = SweepReport(fixture_entries(), z_threshold=2.0).to_json()
        b = SweepReport(
            list(reversed(fixture_entries())), z_threshold=2.0
        ).to_json()
        assert a == b
        json.loads(a)  # valid JSON

    def test_matches_golden_json(self):
        with open(GOLDEN_JSON, encoding="utf-8") as f:
            golden = f.read()
        assert fixture_report().to_json() == golden, (
            "sweep report JSON drifted from the golden fixture; if the "
            "change is intentional, regenerate with "
            "`python -m tests.obs.test_report` and review the diff"
        )

    def test_matches_golden_markdown(self):
        with open(GOLDEN_MD, encoding="utf-8") as f:
            golden = f.read()
        assert fixture_report().render_markdown() == golden

    def test_markdown_structure(self):
        md = fixture_report().render_markdown()
        assert md.startswith("# Sweep report")
        assert "## Groups" in md
        assert "## Bottleneck shares" in md
        assert "## Outliers" in md
        assert "workload=bfs, graph=rmat:9:8, gpns=1" in md
        assert "dominant class bandwidth vs group majority queue" in md

    def test_markdown_without_outliers(self):
        entries = [
            ReportEntry(
                key="a", workload="bfs", graph="g", gpns=1, status="ok",
                gteps=1.0, elapsed_seconds=0.1, quanta=5,
                edges_per_quantum=1.0,
            )
        ]
        assert "none detected" in SweepReport(entries).render_markdown()


def regenerate():
    report = fixture_report()
    with open(GOLDEN_JSON, "w", encoding="utf-8") as f:
        f.write(report.to_json())
    with open(GOLDEN_MD, "w", encoding="utf-8") as f:
        f.write(report.render_markdown())
    print(f"wrote {GOLDEN_JSON}")
    print(f"wrote {GOLDEN_MD}")


if __name__ == "__main__":
    regenerate()
