#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 e2ebench/run.py --workload cli-run --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that yields the per-layer
metrics, writing its spans and ledger under ``--out`` (default
``.e2ebench_out/<workload>/``).  Every run first checks that the
vectorized and scalar engines agree, and checks every answer the
program returns, outside the timed regions.

Output: human-readable lines (environment, sample counts, every metric
with its unit), then as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status is
0 for a correct run, 1 when an op failed or an answer was wrong (the
result line is still printed), and 2 when the benchmark cannot run at
all -- for instance without the program's sources next to it -- in
which case no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
# Children compile the program at every start (see common.pinned_env):
# leave them no bytecode to find.
sys.dont_write_bytecode = True

WORKLOADS = ("cli-run", "sweep-warm", "service-mix")

#: End-to-end metric name -> unit, in ``BENCHMARK.json`` order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "warm_p50_s": "s",
    "compute_mean_s": "s",
    "peak_rss_mib": "MiB",
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is the self-check size")
    parser.add_argument("--out", default=os.path.join(ROOT, ".e2ebench_out"),
                        help="where a traced run writes spans and ledger")
    return parser


def _module(workload: str):
    if workload == "cli-run":
        from e2ebench import cli_run as module
    elif workload == "sweep-warm":
        from e2ebench import sweep_warm as module
    else:
        from e2ebench import service_mix as module
    return module


def _write_trace(out_dir: str, outcome) -> None:
    os.makedirs(out_dir, exist_ok=True)
    found = outcome.notes.pop("spans", [])
    with open(os.path.join(out_dir, "spans.jsonl"), "w", encoding="utf-8") as f:
        for span in found:
            f.write(json.dumps(span) + "\n")
    with open(os.path.join(out_dir, "ledger.json"), "w", encoding="utf-8") as f:
        json.dump({"metrics": outcome.metrics, "notes": outcome.notes,
                   "spans": len(found)}, f, indent=2, sort_keys=True)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    from e2ebench import common

    if not common.program_present():
        print(f"error: the program's sources ({common.SRC}/repro) are missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    bench_root = common.WorkDir("bench")
    try:
        common.pin_process_env(bench_root.sub("cache"), bench_root.sub("store"))
        # Temporary files (the sweep's crash markers among them) stay in
        # the checkout too; every child inherits this.
        os.environ["TMPDIR"] = bench_root.sub("tmp")
        tempfile.tempdir = None
        from e2ebench import ledger, oracle

        print("env " + json.dumps(common.environment_record(), sort_keys=True), flush=True)
        start = time.perf_counter()
        parity = oracle.engine_parity()
        print(f"parity: vectorized == scalar on 5 workloads: {not parity} "
              f"({time.perf_counter() - start:.1f}s)", flush=True)
        trace_out = (os.path.join(args.out, args.workload) if args.trace else None)
        try:
            outcome = _module(args.workload).measure(
                args.seed, args.seconds, args.size, trace_out
            )
        except Exception:
            traceback.print_exc()
            return 2
    finally:
        bench_root.close()

    outcome.attempted += 5
    outcome.failed += len({p.split(":")[0] for p in parity})
    wrong = parity + outcome.wrong
    units = ledger.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    missing = [name for name in units if name not in outcome.metrics]
    if missing:
        wrong.append(f"metrics not measured: {', '.join(missing)}")
    if trace_out is not None:
        _write_trace(trace_out, outcome)
    for key, value in sorted(outcome.notes.items()):
        print(f"{key}: {json.dumps(value, sort_keys=True)}")
    for name, unit in units.items():
        print(f"{name} = {outcome.metrics.get(name, float('nan')):.6g} {unit}")
    error_rate = outcome.failed / max(1, outcome.attempted)
    print(f"error_rate = {error_rate:.6g} ({outcome.failed} of {outcome.attempted} ops)")
    for problem in wrong:
        print(f"WRONG: {problem}")
    correct = not wrong and outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
