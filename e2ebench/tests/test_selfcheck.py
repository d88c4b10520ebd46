"""Tiny-size self-check of the benchmark.

Every workload runs at the ``tiny`` size, untraced and traced: each must
emit exactly the metrics ``BENCHMARK.json`` names, with their units, and
fail no op.  Run with ``python -m pytest e2ebench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from e2ebench import ledger, spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCHMARK = json.load(_f)

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace, tmp_path):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "2",
                "--trace", str(trace), "--size", "tiny", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "error_rate = 0 " in proc.stdout
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        assert os.path.getsize(tmp_path / workload / "spans.jsonl") > 0
        assert (tmp_path / workload / "ledger.json").exists()
        values = {name: m["value"] for name, m in result["metrics"].items()}
        if workload == "cli-run":
            # Unattributed time is measured, not defined away: it holds at
            # least the start-up and exit stretches that no span covers.
            assert values["bench.unattributed_s"] >= (
                values["cli.startup_s"] + values["cli.exit_s"] - 1e-9) > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "e2ebench"), tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_children_and_rollups():
    spans = [
        {"id": "1:1", "parent": None, "name": "core.engine", "start": 0.0,
         "end": 10.0, "op": "a", "attrs": {},
         "agg": {"core.mpu": [4.0, 2], "memory.cache": [1.0, 2]}},
        {"id": "1:2", "parent": "1:1", "name": "graph.csr", "start": 1.0,
         "end": 3.0, "op": "a", "attrs": {"edges": 10}, "agg": {}},
    ]
    metrics = ledger.layer_metrics(spans)
    assert metrics["core.engine_s"] == pytest.approx(4.0)
    assert metrics["core.mpu_s"] == pytest.approx(3.0)
    assert metrics["memory.cache_s"] == pytest.approx(1.0)
    assert metrics["graph.csr_s"] == pytest.approx(2.0)
    ops = [{"op": "a", "start": -1.0, "end": 12.0}]
    assert ledger.unattributed(spans, ops) == pytest.approx(3.0)


def test_flush_records_its_own_write(tmp_path):
    recorder = spans.SpanRecorder(op="a")
    with recorder.span("cli.main"):
        pass
    recorder.flush(str(tmp_path))
    found = spans.load_spans(str(tmp_path))
    assert [s["name"] for s in found] == ["cli.main", "bench.flush"]
    assert found[0]["end"] <= found[1]["start"] <= found[1]["end"]
