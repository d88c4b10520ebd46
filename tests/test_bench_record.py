"""The committed benchmark record and the script that writes it.

``benchmarks/record.py`` runs the benchmark ``BENCHMARK.json``
declares and appends one schema-2 record per workload to
``benchmarks/results/BENCH_history.jsonl``.  These tests check the
committed records against ``BENCHMARK.json`` and drive the script on
synthetic benchmark result lines.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from repro.journal import Journal

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_spec = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(ROOT, "benchmarks", "record.py")
)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCH = json.load(_f)

WORKLOADS = [w["name"] for w in BENCH["workloads"]]
METRICS = BENCH["end_to_end"] + BENCH["per_layer"]


def result_line(value, correct=True, failed=0):
    """A benchmark result line holding ``value`` for every metric."""
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": value, "unit": m["unit"]} for m in METRICS
        },
    }


def schema2(path):
    return [r for r in Journal(path).replay() if r.get("schema") == 2]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_committed_record_covers_every_metric(workload):
    records = [r for r in schema2(record.HISTORY) if r["workload"] == workload]
    assert records, f"no schema-2 record for {workload}"
    newest = records[-1]
    assert newest["runs"] == 5
    assert newest["failed"] == 0
    for metric in METRICS:
        entry = newest["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"], metric["name"]
        assert entry["q1"] <= entry["median"] <= entry["q3"], metric["name"]


def test_summarize_gives_median_and_quartiles():
    lines = [result_line(v) for v in (5.0, 1.0, 4.0, 2.0, 3.0)]
    assert record.summarize(lines, {"wall_s": "s"}) == {
        "wall_s": {"unit": "s", "median": 3.0, "q1": 2.0, "q3": 4.0}
    }


@pytest.fixture
def scripted(monkeypatch, tmp_path):
    """Point the script at a temporary history and feed it ``lines``."""
    history = str(tmp_path / "history.jsonl")
    monkeypatch.setattr(record, "HISTORY", history)
    monkeypatch.setattr(record, "git", lambda *args: "")

    def feed(lines):
        calls = iter(lines)
        monkeypatch.setattr(record, "run_once", lambda *args: next(calls))
        return history

    return feed


def test_appends_one_record_per_workload(scripted):
    runs = 2 * record.RUNS * len(WORKLOADS)
    history = scripted([result_line(float(i)) for i in range(runs)])
    assert record.main() == 0
    records = schema2(history)
    assert [r["workload"] for r in records] == WORKLOADS
    for r in records:
        assert r["runs"] == record.RUNS
        assert (r["attempted"], r["failed"]) == (10 * 2 * record.RUNS, 0)
        assert {m["name"] for m in METRICS} == set(r["metrics"])


@pytest.mark.parametrize(
    "bad",
    [None, result_line(1.0, correct=False), result_line(1.0, failed=1)],
    ids=["nonzero-exit", "incorrect", "failed-op"],
)
def test_refuses_unless_every_run_is_clean(scripted, bad):
    runs = 2 * record.RUNS * len(WORKLOADS)
    lines = [result_line(1.0)] * (runs - 1)
    lines.insert(runs // 2, bad)  # a later workload's run
    history = scripted(lines)
    assert record.main() != 0
    assert not os.path.exists(history)
