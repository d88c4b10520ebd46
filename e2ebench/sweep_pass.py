"""One ``sweep-warm`` pass in a fresh process: the sweep's parent.

Usage: ``python e2ebench/sweep_pass.py PLAN.json OUT.json TRACE_DIR|- OP``

Runs one compute call of :class:`~repro.runner.SweepRunner` over the
plan's cells on an empty run cache, then the plan's identical hit
calls, timing each call.  Writes the timings, the calls' stats and the
process tree's peak RSS to ``OUT.json``.  With a trace directory the
layer wrappers are installed first; the program's own executor runs in
the forked workers, whose engine wrapper flushes their spans after
every run.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)


def build_specs(plan):
    """The plan's cells as RunSpecs (shared with the verifier)."""
    from repro.runner import GraphSpec, RunSpec
    from repro.sim.config import scaled_config

    specs = []
    for cell in plan["cells"]:
        gspec = GraphSpec(
            cell["graph"], seed=cell["seed"], scale=cell["scale"],
            weighted=cell["workload"] == "sssp",
            symmetrized=cell["workload"] == "cc",
        )
        specs.append(RunSpec(
            cell["workload"], gspec,
            config=scaled_config(num_gpns=cell["gpns"]),
            source=cell["source"],
            workload_kwargs=dict(cell["kwargs"]),
        ))
    return specs


def _ledger_monitor():
    from repro.runner import SweepMonitor

    from e2ebench.spans import clock

    class LedgerMonitor(SweepMonitor):
        """Busy, wait and idle seconds of the pool's cells."""

        def begin(self, keys, workers=1):
            super().begin(keys, workers=workers)
            self.began, self.busy, self.wait = clock(), 0.0, 0.0
            self.submitted = {}

        def running(self, key):
            super().running(key)
            self.submitted.setdefault(key, clock())

        def finish(self, key, ok, elapsed_seconds=0.0):
            super().finish(key, ok, elapsed_seconds=elapsed_seconds)
            self.busy += elapsed_seconds
            since = clock() - self.submitted.get(key, self.began)
            self.wait += max(0.0, since - elapsed_seconds)

        def end(self):
            super().end()
            self.wall = clock() - self.began

    return LedgerMonitor()


def main(argv) -> int:
    plan_path, out_path, trace_dir, op = argv
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    from repro.runner import RunFailure, SweepRunner

    from e2ebench import common
    from e2ebench.spans import SpanRecorder, clock, install

    recorder = monitor = None
    if trace_dir != "-":
        recorder = SpanRecorder(op=op)
        install(recorder, trace_dir)
        monitor = _ledger_monitor()
    specs = build_specs(plan)

    def call(monitor=None):
        runner = SweepRunner(workers=plan["workers"], cache_dir=plan["cache_dir"])
        start = clock()
        results, stats = runner.run(specs, on_failure="return", monitor=monitor)
        seconds = clock() - start
        failures = [f"{r.kind}: {r.error_type}: {r.message}"
                    for r in results if isinstance(r, RunFailure)]
        return {"start": start, "seconds": seconds, "total": stats.total, "hits": stats.hits,
                "computed": stats.computed, "failed": stats.failed,
                "retried": stats.retried, "deduped": stats.deduped,
                "failures": failures}

    out = {"compute": call(monitor)}
    out["hits"] = [call() for _ in range(plan["hit_calls"])]
    out["maxrss_kib"] = common.self_and_children_maxrss_kib()
    if monitor is not None:
        out["ledger"] = {
            "runner.cell_busy_s": monitor.busy,
            "runner.cell_wait_s": monitor.wait,
            "runner.pool_idle_s": max(0.0, plan["workers"] * monitor.wall - monitor.busy),
            "runner.retries": out["compute"]["retried"],
        }
    if recorder is not None:
        recorder.flush(trace_dir)
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
