"""Record the repository benchmark's numbers in the committed history.

    python benchmarks/record.py

Runs every workload that ``BENCHMARK.json`` names ``RUNS`` times
untraced and ``RUNS`` times traced at seed ``SEED``, each for the
file's ``run_seconds``, through the file's ``command`` (e2ebench).
Then it appends one record per workload to
``benchmarks/results/BENCH_history.jsonl``: the median, q1 and q3 of
every end-to-end metric (untraced runs) and every per-layer metric
(traced runs) with its unit, the ops attempted and failed, the HEAD
commit and whether the tree differed from it.  Nothing is written
unless every run exits 0 with ``correct: true`` and ``failed: 0``.
Older lines of the file (schema 1) stay as history.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.journal import Journal  # noqa: E402

HISTORY = os.path.join(ROOT, "benchmarks", "results", "BENCH_history.jsonl")
SCHEMA = 2
RUNS = 5
SEED = 1


def run_once(bench, workload, trace):
    """One benchmark run: its result line, or ``None`` unless it exited 0."""
    command = bench["command"] + [
        "--workload", workload, "--seed", str(SEED),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    print(f"{workload} trace={trace}: exit {proc.returncode} "
          f"({time.perf_counter() - start:.0f} s)", flush=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(results, units):
    """Median and quartiles of each named metric over ``results``."""
    summary = {}
    for name, unit in units.items():
        values = [result["metrics"][name]["value"] for result in results]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        summary[name] = {"unit": unit, "median": median, "q1": q1, "q3": q3}
    return summary


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=True).stdout.strip()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    sha, dirty = git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
    records = []
    for workload in (w["name"] for w in bench["workloads"]):
        plain, traced = [], []
        for _ in range(RUNS):
            for trace, found in ((0, plain), (1, traced)):
                result = run_once(bench, workload, trace)
                if result is None or not result["correct"] or result["failed"]:
                    print(f"error: a {workload} run (trace={trace}) failed or "
                          "answered wrong; nothing recorded", file=sys.stderr)
                    return 1
                found.append(result)
        metrics = {}
        for kind, results in (("end_to_end", plain), ("per_layer", traced)):
            units = {m["name"]: m["unit"] for m in bench[kind]}
            metrics.update(summarize(results, units))
        records.append({
            "schema": SCHEMA, "workload": workload, "sha": sha, "dirty": dirty,
            "ts": time.time(), "seed": SEED,
            "run_seconds": bench["run_seconds"], "runs": RUNS,
            "attempted": sum(r["attempted"] for r in plain + traced),
            "failed": sum(r["failed"] for r in plain + traced),
            "metrics": metrics,
        })
    journal = Journal(HISTORY)
    try:
        for record in records:
            journal.append(record)
    finally:
        journal.close()
    print(f"appended {len(records)} records to {HISTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
