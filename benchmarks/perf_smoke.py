"""Hot-path performance smoke: vectorized engine vs scalar golden engine.

Times the same simulations on :class:`~repro.core.engine.NovaEngine`
(flat-batched quantum phases) and
:class:`~repro.core.engine_scalar.ScalarNovaEngine` (the per-PE loop
reference), asserts the results are bit-identical, and gates on the
vectorized engine sustaining at least ``MIN_SPEEDUP`` more quanta per
wall-clock second on a 64-PE configuration.  It also demonstrates the
sweep runner's cache: a second invocation of the same sweep must
recompute nothing.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/perf_smoke.py

Writes quanta/sec and wall-clock numbers to
``benchmarks/results/BENCH_hotpath.json`` and exits nonzero if the
speedup gate or any parity check fails.  ``--check-only`` runs just the
deterministic functional checks (run-cache round trip and sweep fault
isolation) with no timing gates and no result files -- suitable for CI
runners with unpredictable load.

Observability overhead guard: the committed ``BENCH_hotpath.json`` from
the pre-observability revision is loaded *before* it is overwritten and
serves as the baseline for the NullRecorder overhead gate -- the
default (uninstrumented) vectorized hot path must stay within
``OBS_MAX_OVERHEAD`` of the committed quanta/sec.  An instrumented
(TimelineRecorder + PhaseProfiler) run is also timed for information,
and the whole comparison is written to ``benchmarks/results/BENCH_obs.json``.

Graph artifact store: a multi-worker sweep of same-graph cells must
build the graph exactly once on a cold store and zero times on a warm
one (counter-asserted, deterministic, part of ``--check-only``); the
full run additionally measures the cold-vs-warm sweep wall clock and a
map-vs-rebuild microbench, gates mapping on ``MIN_MAP_SPEEDUP``, and
writes ``benchmarks/results/BENCH_graph_store.json``.

Typed metrics registry: the histogram/gauge registry behind ``/metrics``
must place observations correctly, render a valid Prometheus exposition
(deterministic, part of ``--check-only``); the full run additionally
interleaves bare vs seam-instrumented NovaSystem rounds and gates the
per-job MetricsRegistry cost on ``OBS_MAX_OVERHEAD``, merged into
``BENCH_obs.json`` under ``metrics_registry``.

Regression tracking: ``--against <path>`` compares this invocation's
metrics to the rolling-median baseline kept in an append-only
git-SHA-stamped history (:class:`repro.obs.bench_history.BenchHistory`;
a directory resolves to ``BENCH_history.jsonl`` inside it), appends the
fresh record, writes the rendered diff to
``benchmarks/results/BENCH_history_diff.txt``, and exits nonzero on any
regressed metric.  Under ``--check-only`` the compared metrics come
from the *committed* ``BENCH_*.json`` files rather than fresh timing,
so the verdict is deterministic on loaded CI machines.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time

import numpy as np

from repro import NovaSystem, scaled_config
from repro.graph.generators import rmat
from repro.obs import ObsConfig, make_recorder
from repro.runner import RunSpec, SweepRunner

MIN_SPEEDUP = 2.0
MIN_MAP_SPEEDUP = 2.0  # mapping a stored graph must beat rebuilding it
STREAM_MIN_SPEEDUP = 3.0  # incremental PR vs cold recompute, small deltas
OBS_MAX_OVERHEAD = 0.03  # NullRecorder may cost <3% vs the committed baseline
GATE_ATTEMPTS = 3  # re-measure a failing overhead gate before declaring it real
TRIALS = 3  # minimum trials per variant
MAX_TRIALS = 60
MIN_MEASURE_SECONDS = 0.8  # keep sampling until each variant has this much

#: variants timed per case, interleaved (see time_variants)
OBS_VARIANTS = {
    "scalar": ("scalar", None),
    "vectorized": ("vectorized", None),
    "timeline": ("vectorized", ObsConfig(timeline=True, phases=True)),
}

CASES = [
    {
        "name": "bfs_rmat13",
        "workload": "bfs",
        "graph": ("rmat", 13, 8, 5),
        "source": 0,
        "kwargs": {},
    },
    {
        "name": "pr_rmat12",
        "workload": "pr",
        "graph": ("rmat", 12, 8, 5),
        "source": None,
        "kwargs": {"max_supersteps": 20},
    },
]


def build_graph(spec):
    kind, scale, degree, seed = spec
    assert kind == "rmat"
    return rmat(scale, degree, seed=seed)


def same_result(a, b) -> bool:
    if a.elapsed_seconds != b.elapsed_seconds or a.quanta != b.quanta:
        return False
    if not np.array_equal(a.result, b.result):
        return False
    return (
        a.messages_sent == b.messages_sent
        and a.messages_processed == b.messages_processed
        and a.traffic == b.traffic
    )


def time_variants(case, config, variants: dict) -> dict:
    """Time several (engine, obs-config) variants of one case.

    ``variants`` maps a name to ``(engine, ObsConfig-or-None)``.  Trials
    are interleaved round-robin across the variants so machine-speed
    drift during the measurement hits every variant equally, and the
    reported quanta/sec uses the median trial -- both matter because the
    overhead gate below resolves differences of a few percent.
    """
    graph = build_graph(case["graph"])
    walls = {name: [] for name in variants}
    results = {}
    for trial in range(MAX_TRIALS):
        for name, (engine, obs) in variants.items():
            system = NovaSystem(config, graph, placement="random", engine=engine)
            recorder = make_recorder(obs) if obs is not None else None
            start = time.perf_counter()
            run = system.run(
                case["workload"],
                source=case["source"],
                recorder=recorder,
                **case["kwargs"],
            )
            walls[name].append(time.perf_counter() - start)
            results[name] = run  # deterministic: every trial is identical
        if trial + 1 >= TRIALS and all(
            sum(w) >= MIN_MEASURE_SECONDS for w in walls.values()
        ):
            break
    out = {}
    for name in variants:
        median = statistics.median(walls[name])
        out[name] = {
            "wall_seconds": min(walls[name]),
            "median_wall_seconds": median,
            "trials": len(walls[name]),
            "quanta": results[name].quanta,
            "quanta_per_sec": results[name].quanta / median,
            "result": results[name],
            "walls": walls[name],
        }
    return out


def paired_speedup(timing: dict, slow: str = "scalar", fast: str = "vectorized"):
    """Median of per-round wall-clock ratios between two variants.

    The rounds are interleaved, so each pair is adjacent in time and
    machine-speed drift over the measurement window cancels -- much
    tighter than the ratio of independently computed medians.
    """
    return statistics.median(
        s / v for s, v in zip(timing[slow]["walls"], timing[fast]["walls"])
    )


def load_committed_baseline(out_dir: str) -> dict:
    """Read the checked-in BENCH_hotpath.json before this run clobbers it."""
    path = os.path.join(out_dir, "BENCH_hotpath.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as f:
        return json.load(f).get("cases", {})


def check_obs_overhead(baseline_cases: dict, timings: dict, config) -> dict:
    """Gate the NullRecorder (default) hot path against the committed
    pre-run baseline, and report the fully instrumented path for info.

    Raw quanta/sec drifts between sessions with machine load, so the
    comparison is normalized by the same-session *scalar* measurement:
    the scalar reference pays a negligible fractional bookkeeping cost,
    so a drop in the vectorized/scalar speedup ratio isolates overhead
    added to the vectorized hot path from machine-wide slowdown.  All
    three variants were timed interleaved (see :func:`time_variants`).
    """
    report = {"max_overhead": OBS_MAX_OVERHEAD, "cases": {}, "ok": True}
    for case in CASES:
        entry = _overhead_entry(timings[case["name"]], baseline_cases, case)
        # Scheduler noise mostly slows a measurement down, so a failing
        # gate is re-measured and the best (lowest-overhead) attempt
        # kept: a spike clears on retry, a real regression persists.
        attempts = 1
        while entry.get("gate_ok") is False and attempts < GATE_ATTEMPTS:
            retry = _overhead_entry(
                time_variants(case, config, OBS_VARIANTS), baseline_cases, case
            )
            if (
                retry["null_overhead_vs_baseline"]
                < entry["null_overhead_vs_baseline"]
            ):
                entry = retry
            attempts += 1
        entry["attempts"] = attempts
        if not entry["instrumented_parity"] or entry["gate_ok"] is False:
            report["ok"] = False
        if entry["gate_ok"] is None:
            print(
                f"{case['name']:>12}: no committed baseline; null "
                f"{entry['null_quanta_per_sec']:.1f} q/s recorded ungated"
            )
        else:
            print(
                f"{case['name']:>12}: null {entry['null_quanta_per_sec']:.1f} "
                f"q/s vs baseline {entry['baseline_quanta_per_sec']:.1f} q/s "
                f"(overhead {entry['null_overhead_vs_baseline'] * 100:+.1f}% "
                f"after {entry['machine_drift']:.2f}x drift correction, limit "
                f"{OBS_MAX_OVERHEAD * 100:.0f}%, {attempts} attempt(s))  "
                f"timeline {entry['timeline_quanta_per_sec']:.1f} q/s  "
                f"[{'ok' if entry['gate_ok'] else 'FAIL'}]"
            )
        report["cases"][case["name"]] = entry
    return report


def _overhead_entry(timing: dict, baseline_cases: dict, case) -> dict:
    null_qps = timing["vectorized"]["quanta_per_sec"]
    timed = timing["timeline"]
    entry = {
        "null_quanta_per_sec": null_qps,
        "timeline_quanta_per_sec": timed["quanta_per_sec"],
        "timeline_overhead": 1.0 - timed["quanta_per_sec"] / null_qps,
        "instrumented_parity": same_result(
            timing["vectorized"]["result"], timed["result"]
        ),
        "trials": timing["vectorized"]["trials"],
        "gate_ok": None,
    }
    base = baseline_cases.get(case["name"], {})
    base_vec = base.get("vectorized_quanta_per_sec")
    base_scalar = base.get("scalar_quanta_per_sec")
    base_speedup = base.get("speedup") or (
        base_vec / base_scalar if base_vec and base_scalar else None
    )
    if base_vec and base_scalar and base_speedup:
        fresh_speedup = paired_speedup(timing)
        overhead = 1.0 - fresh_speedup / base_speedup
        entry.update(
            baseline_quanta_per_sec=base_vec,
            machine_drift=timing["scalar"]["quanta_per_sec"] / base_scalar,
            null_overhead_vs_baseline=overhead,
            gate_ok=overhead <= OBS_MAX_OVERHEAD,
        )
    return entry


def check_run_cache() -> dict:
    """Same sweep twice through a fresh cache: second pass computes 0."""
    graph = rmat(10, 8, seed=5)
    config = scaled_config(num_gpns=2, scale=1.0 / 1024.0)
    specs = [
        RunSpec("bfs", graph, config=config, source=s) for s in (0, 1, 2)
    ]
    with tempfile.TemporaryDirectory() as cache_dir:
        runner = SweepRunner(workers=1, cache_dir=cache_dir)
        first_results, first = runner.run(specs)
        second_results, second = runner.run(specs)
    ok = (
        first.computed == len(specs)
        and second.computed == 0
        and second.hits == len(specs)
        and all(same_result(a, b) for a, b in zip(first_results, second_results))
    )
    return {
        "first": str(first),
        "second": str(second),
        "zero_recompute": ok,
    }


def _smoke_fail(spec):
    raise RuntimeError("injected smoke failure")


def check_fault_isolation() -> dict:
    """A poisoned spec must not lose or block its sibling runs.

    One always-failing spec rides with two good ones: the sweep must
    complete both siblings, report the failure in ``SweepStats.failed``,
    and a rerun must resolve the finished runs from the checkpointed
    cache (hits) while recomputing nothing.
    """
    from repro.runner import RetryPolicy, RunFailure, register_system

    register_system("__smoke_fail__", _smoke_fail)
    graph = rmat(10, 8, seed=5)
    config = scaled_config(num_gpns=2, scale=1.0 / 1024.0)
    specs = [
        RunSpec("bfs", graph, config=config, source=0),
        RunSpec("bfs", graph, system="__smoke_fail__", config=config, source=0),
        RunSpec("bfs", graph, config=config, source=1),
    ]
    with tempfile.TemporaryDirectory() as cache_dir:
        runner = SweepRunner(
            workers=1, cache_dir=cache_dir, policy=RetryPolicy(retries=0)
        )
        results, first = runner.run(specs, on_failure="return")
        _, second = runner.run(specs, on_failure="return")
    siblings_ok = (
        first.failed == 1
        and first.computed == 2
        and isinstance(results[1], RunFailure)
        and results[1].kind == "error"
        and not isinstance(results[0], RunFailure)
        and not isinstance(results[2], RunFailure)
    )
    resume_ok = second.hits == 2 and second.computed == 0 and second.failed == 1
    return {
        "first": str(first),
        "second": str(second),
        "siblings_survive": siblings_ok,
        "resume_zero_recompute": resume_ok,
        "ok": siblings_ok and resume_ok,
    }


def check_graph_store(timed: bool = True) -> dict:
    """Exercise the content-addressed graph artifact store end to end.

    Functional half (always, deterministic): a multi-worker sweep of N
    same-graph cells builds the graph exactly once on a cold store and
    zero times on a warm one (asserted via the ``graph_store.*``
    counters), and the warm (memmap-backed) runs are bit-identical to
    the cold runs.

    Timing half (skipped under ``--check-only``): the cold-vs-warm
    end-to-end sweep wall clock, plus a map-vs-rebuild microbench on the
    published artifact, gated on ``MIN_MAP_SPEEDUP``.  Both speedups go
    into ``BENCH_graph_store.json`` as history metrics.
    """
    from repro.graph.store import GraphStore, spec_digest
    from repro.obs.counters import FAULT_COUNTERS
    from repro.runner.spec import GraphSpec, _GRAPH_MEMO

    def store_delta(base):
        return {
            name: count
            for name, count in FAULT_COUNTERS.delta_since(base).items()
            if name.startswith("graph_store.")
        }

    def timed_sweep(cache_dir):
        _GRAPH_MEMO.clear()
        base = FAULT_COUNTERS.snapshot()
        start = time.perf_counter()
        results, _ = SweepRunner(workers=2, cache_dir=cache_dir).run(specs)
        return results, time.perf_counter() - start, store_delta(base)

    graph_spec = GraphSpec("rmat:15:8", seed=5)
    config = scaled_config(num_gpns=2, scale=1.0 / 1024.0)
    specs = [
        RunSpec("bfs", graph_spec, config=config, source=s) for s in range(4)
    ]
    saved = {
        name: os.environ.get(name)
        for name in ("REPRO_GRAPH_STORE", "REPRO_GRAPH_STORE_DIR")
    }
    report = {"cells": len(specs), "graph": graph_spec.spec, "ok": True}
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = os.path.join(tmp, "graphs")
        os.environ["REPRO_GRAPH_STORE_DIR"] = store_dir
        os.environ.pop("REPRO_GRAPH_STORE", None)
        try:
            cold_results, cold_wall, cold = timed_sweep(
                os.path.join(tmp, "cache-cold")
            )
            warm_results, warm_wall, warm = timed_sweep(
                os.path.join(tmp, "cache-warm")
            )
            report["cold_counters"] = cold
            report["warm_counters"] = warm
            report["builds_exactly_once"] = (
                cold.get("graph_store.builds") == 1
                and "graph_store.builds" not in warm
                and warm.get("graph_store.hits", 0) >= 1
            )
            report["cold_warm_parity"] = all(
                same_result(a, b)
                for a, b in zip(cold_results, warm_results)
            )
            if not (report["builds_exactly_once"] and report["cold_warm_parity"]):
                report["ok"] = False

            if timed:
                store = GraphStore(store_dir)
                digest = spec_digest(graph_spec)
                map_walls, build_walls = [], []
                for _ in range(TRIALS):
                    start = time.perf_counter()
                    mapped = store.load(digest)
                    map_walls.append(time.perf_counter() - start)
                    start = time.perf_counter()
                    built = graph_spec.build_uncached()
                    build_walls.append(time.perf_counter() - start)
                map_parity = np.array_equal(mapped.col_idx, built.col_idx)
                map_speedup = statistics.median(build_walls) / max(
                    statistics.median(map_walls), 1e-9
                )
                report.update(
                    cold_sweep_wall_seconds=cold_wall,
                    warm_sweep_wall_seconds=warm_wall,
                    build_wall_seconds=statistics.median(build_walls),
                    map_wall_seconds=statistics.median(map_walls),
                    map_parity=map_parity,
                    min_map_speedup=MIN_MAP_SPEEDUP,
                    metrics={
                        "map_speedup": map_speedup,
                        "sweep_speedup": cold_wall / max(warm_wall, 1e-9),
                    },
                )
                if map_speedup < MIN_MAP_SPEEDUP or not map_parity:
                    report["ok"] = False
        finally:
            _GRAPH_MEMO.clear()
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value

    line = (
        f"graph store: {len(specs)} same-graph cells  cold "
        f"{report['cold_counters']} warm {report['warm_counters']}  "
        f"build-once={report['builds_exactly_once']} "
        f"parity={report['cold_warm_parity']}"
    )
    if timed:
        metrics = report["metrics"]
        line += (
            f"\ngraph store: sweep cold {report['cold_sweep_wall_seconds']:.3f}s"
            f" -> warm {report['warm_sweep_wall_seconds']:.3f}s "
            f"({metrics['sweep_speedup']:.2f}x)  map "
            f"{report['map_wall_seconds'] * 1e3:.1f}ms vs rebuild "
            f"{report['build_wall_seconds'] * 1e3:.1f}ms "
            f"({metrics['map_speedup']:.1f}x, gate {MIN_MAP_SPEEDUP:.0f}x)"
        )
    print(line + f"  [{'ok' if report['ok'] else 'FAIL'}]")
    return report


def _stream_batch(overlay, rng, n_inserts: int, n_deletes: int):
    """A valid delta batch against the overlay's current edge set."""
    from repro.stream import EdgeDeltaBatch

    n = overlay.num_vertices
    inserts, deletes, seen = [], [], set()
    while len(inserts) < n_inserts:
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if (u, v) in seen or overlay.has_edge(u, v):
            continue
        seen.add((u, v))
        inserts.append((u, v))
    while len(deletes) < n_deletes:
        u = int(rng.integers(n))
        nbrs = overlay.neighbors(u)
        if not nbrs.size:
            continue
        v = int(nbrs[int(rng.integers(nbrs.size))])
        if (u, v) in seen:
            continue
        seen.add((u, v))
        deletes.append((u, v))
    return EdgeDeltaBatch(inserts, deletes)


def check_stream(timed: bool = True) -> dict:
    """Exercise the streaming delta overlay end to end and gate its payoff.

    Functional half (always, deterministic): applying a fixed delta
    batch to an R-MAT base must leave the overlay's adjacency, degree,
    and edge-count views bit-identical to its own ``materialize()``;
    the version digest chain must replay deterministically; incremental
    BFS / CC / PageRank seeded before the batch must match cold
    recomputation on the post-delta graph; and ``compact()`` must
    publish the merged CSR under the unchanged version digest and keep
    accepting deltas afterwards.

    Timing half (skipped under ``--check-only``): small delta batches
    against a large resident base, incremental state advance vs cold
    recompute (materialize + full run) at the same version.  The gate is
    on BFS with insert-only deltas -- deletions that break shortest-path
    tightness fall back to cold *by design* (the equivalence suite
    covers their correctness), so the non-fallback path is what the
    speedup claim is about.  The median BFS speedup must clear
    ``STREAM_MIN_SPEEDUP``; a failing measurement is re-taken up to
    ``GATE_ATTEMPTS`` times and the best attempt kept.  PageRank's
    incremental speedup over mixed insert/delete batches is measured
    the same way and recorded as an ungated history metric: its round
    count scales with the decades of residual decay, so small deltas
    buy a bounded (~2x) win rather than a frontier-sized one.
    """
    from repro.graph.store import GraphStore
    from repro.stream import (
        DeltaOverlayGraph,
        cold_answer,
        incremental_update,
        net_delta,
        seed_state,
    )

    report = {"ok": True}
    base = rmat(10, 8, seed=5)
    overlay = DeltaOverlayGraph(base)
    v0 = overlay.version_digest
    states = {
        wl: seed_state(wl, overlay, source=0 if wl == "bfs" else None)[0]
        for wl in ("bfs", "cc", "pr")
    }
    rng = np.random.default_rng(7)
    batch = _stream_batch(overlay, rng, n_inserts=16, n_deletes=12)
    v1 = overlay.apply(batch)

    replay = DeltaOverlayGraph(rmat(10, 8, seed=5))
    report["deterministic_chain"] = v1 != v0 and replay.apply(batch) == v1

    merged = overlay.materialize()
    report["adjacency_parity"] = (
        overlay.num_edges == merged.num_edges
        and np.array_equal(overlay.out_degrees(), merged.out_degrees())
        and all(
            np.array_equal(
                np.sort(overlay.neighbors(v)), np.sort(merged.neighbors(v))
            )
            for v in range(overlay.num_vertices)
        )
    )

    equivalence = {}
    ins, dels = net_delta(overlay.batches)
    for wl, state in states.items():
        answer, _ = incremental_update(wl, overlay, state, ins, dels)
        cold = cold_answer(wl, merged, source=0 if wl == "bfs" else None)
        if wl == "pr":
            equivalence[wl] = bool(np.allclose(answer, cold, atol=1e-8))
        else:
            equivalence[wl] = bool(np.array_equal(answer, cold))
    report["equivalence"] = equivalence

    with tempfile.TemporaryDirectory() as tmp:
        store = GraphStore(os.path.join(tmp, "graphs"))
        digest, compacted = overlay.compact(store)
        after = _stream_batch(overlay, rng, n_inserts=4, n_deletes=4)
        report["compaction_ok"] = (
            digest == v1
            and overlay.version_digest == v1
            and np.array_equal(
                np.sort(store.load(digest).col_idx), np.sort(merged.col_idx)
            )
            and overlay.apply(after) != v1
            and overlay.num_edges == overlay.materialize().num_edges
        )

    if not (
        report["deterministic_chain"]
        and report["adjacency_parity"]
        and all(equivalence.values())
        and report["compaction_ok"]
    ):
        report["ok"] = False
    print(
        f"stream: overlay chain={report['deterministic_chain']} "
        f"parity={report['adjacency_parity']} equivalence={equivalence} "
        f"compaction={report['compaction_ok']}  "
        f"[{'ok' if report['ok'] else 'FAIL'}]"
    )

    if timed:
        big = rmat(14, 8, seed=5)
        resident = DeltaOverlayGraph(big)
        source = int(np.argmax(np.asarray(big.out_degrees())))
        bfs_state, _ = seed_state("bfs", resident, source=source)
        pr_state, _ = seed_state("pr", resident)
        rng = np.random.default_rng(11)

        def trial(workload, state, n_inserts, n_deletes):
            step = _stream_batch(resident, rng, n_inserts, n_deletes)
            resident.apply(step)
            ins, dels = net_delta(resident.batches[state.seq :])
            start = time.perf_counter()
            answer, _ = incremental_update(
                workload, resident, state, ins, dels
            )
            inc_wall = time.perf_counter() - start
            kwargs = {"source": source} if workload == "bfs" else {}
            start = time.perf_counter()
            cold = cold_answer(workload, resident.materialize(), **kwargs)
            cold_wall = time.perf_counter() - start
            if workload == "pr":
                close = bool(np.allclose(answer, cold, atol=1e-8))
            else:
                close = bool(np.array_equal(answer, cold))
            return inc_wall, cold_wall, close

        def measure(workload, state, n_inserts, n_deletes):
            inc_walls, cold_walls, parity = [], [], True
            for _ in range(TRIALS):
                inc, cold, close = trial(
                    workload, state, n_inserts, n_deletes
                )
                inc_walls.append(inc)
                cold_walls.append(cold)
                parity = parity and close
            speedup = statistics.median(cold_walls) / max(
                statistics.median(inc_walls), 1e-9
            )
            return inc_walls, cold_walls, parity, speedup

        # Gated: BFS state advance on insert-only small deltas.
        inc_walls, cold_walls, parity, speedup = measure(
            "bfs", bfs_state, 8, 0
        )
        attempts = 1
        while speedup < STREAM_MIN_SPEEDUP and attempts < GATE_ATTEMPTS:
            retry = measure("bfs", bfs_state, 8, 0)
            if retry[3] > speedup:
                inc_walls, cold_walls, parity, speedup = retry
            attempts += 1
        gate_ok = parity and speedup >= STREAM_MIN_SPEEDUP
        # Ungated but tracked: PageRank advance on mixed deltas.
        _, _, pr_parity, pr_speedup = measure("pr", pr_state, 4, 4)
        report.update(
            timed_graph="rmat:14:8",
            timed_trials=TRIALS,
            attempts=attempts,
            timed_parity=parity and pr_parity,
            incremental_wall_seconds=statistics.median(inc_walls),
            cold_wall_seconds=statistics.median(cold_walls),
            min_stream_speedup=STREAM_MIN_SPEEDUP,
            metrics={
                "incremental_speedup": speedup,
                "pr_incremental_speedup": pr_speedup,
            },
        )
        if not (gate_ok and pr_parity):
            report["ok"] = False
        print(
            f"stream: small-delta bfs on rmat:14:8  incremental "
            f"{statistics.median(inc_walls) * 1e3:.2f}ms  cold "
            f"{statistics.median(cold_walls) * 1e3:.2f}ms  speedup "
            f"{speedup:.1f}x (gate {STREAM_MIN_SPEEDUP:.1f}x, "
            f"{attempts} attempt(s))  pr {pr_speedup:.2f}x (tracked)  "
            f"parity={parity and pr_parity}  "
            f"[{'ok' if gate_ok and pr_parity else 'FAIL'}]"
        )
    return report


def check_metrics_registry(timed: bool = True) -> dict:
    """Exercise the typed MetricsRegistry end to end and gate its cost.

    Functional half (always, deterministic): a fresh registry must place
    observations into the right log-scale buckets with cumulative
    monotone counts and ``+Inf == count``, interpolate quantiles inside
    the observed range, survive ``reset()`` with its declared histogram
    families intact, and render a Prometheus exposition that passes the
    strict validator with at least five histogram families.

    Timing half (skipped under ``--check-only``): interleaved rounds of
    the same NovaSystem run bare vs wrapped in the per-job service seam
    bundle (submit counter, queue gauges, queue-wait observation, and a
    ``time_histogram`` around the run -- exactly what the scheduler
    records per job).  The median per-round overhead must stay under
    ``OBS_MAX_OVERHEAD``; like the other gates, a failing measurement is
    re-taken up to ``GATE_ATTEMPTS`` times and the best attempt kept.
    """
    from repro.obs.counters import DEFAULT_HISTOGRAMS, MetricsRegistry
    from repro.obs.prom import render_prometheus, validate_exposition

    def fresh_registry() -> MetricsRegistry:
        registry = MetricsRegistry()
        for name in DEFAULT_HISTOGRAMS:
            registry.declare_histogram(name)
        return registry

    registry = fresh_registry()
    samples = (0.0002, 0.003, 0.003, 0.04, 2.5)
    for value in samples:
        registry.observe("service.run_seconds", value)
    registry.increment("service.completed", 5)
    registry.set_gauge("service.queue_depth", 3.0)
    snap = registry.histograms()["service.run_seconds"]
    cumulative = [count for _, count in snap["buckets"]]
    placement_ok = (
        snap["count"] == len(samples)
        and abs(snap["sum"] - sum(samples)) < 1e-9
        and snap["buckets"][-1] == ["+Inf", len(samples)]
        and all(a <= b for a, b in zip(cumulative, cumulative[1:]))
    )
    p50 = registry.quantile("service.run_seconds", 0.5)
    quantile_ok = p50 is not None and 0.0002 <= p50 <= 2.5
    text = render_prometheus(
        registry.snapshot(), registry.gauges(), registry.histograms()
    )
    errors, families = validate_exposition(text)
    histogram_families = sum(
        1 for kind in families.values() if kind == "histogram"
    )
    exposition_ok = not errors and histogram_families >= 5
    registry.reset()
    reset_ok = (
        set(DEFAULT_HISTOGRAMS) <= set(registry.histograms())
        and registry.histograms()["service.run_seconds"]["count"] == 0
        and registry.get("service.completed") == 0
    )
    report = {
        "placement_ok": placement_ok,
        "quantile_ok": quantile_ok,
        "exposition_ok": exposition_ok,
        "exposition_errors": errors[:5],
        "histogram_families": histogram_families,
        "reset_preserves_families": reset_ok,
        "ok": placement_ok and quantile_ok and exposition_ok and reset_ok,
    }
    print(
        f"metrics registry: placement={placement_ok} "
        f"quantile={quantile_ok} exposition={exposition_ok} "
        f"({histogram_families} histogram families) reset={reset_ok}  "
        f"[{'ok' if report['ok'] else 'FAIL'}]"
    )
    if not timed:
        return report

    # Per-round work must dwarf timer jitter: a sub-millisecond run
    # turns scheduler noise into percent-scale phantom overhead, so the
    # harness uses a graph big enough for ~10ms rounds.
    graph = rmat(12, 8, seed=5)
    config = scaled_config(num_gpns=2, scale=1.0 / 1024.0)

    def run_bare() -> float:
        system = NovaSystem(config, graph, placement="random")
        start = time.perf_counter()
        system.run("bfs", source=0)
        return time.perf_counter() - start

    def run_metered(reg: MetricsRegistry) -> float:
        system = NovaSystem(config, graph, placement="random")
        start = time.perf_counter()
        reg.increment("service.submitted")
        reg.set_gauge("service.queue_depth", 1.0)
        reg.observe(
            "service.queue_wait_seconds", time.perf_counter() - start
        )
        reg.set_gauge("service.running", 1.0)
        with reg.time_histogram("service.run_seconds"):
            system.run("bfs", source=0)
        reg.increment("service.completed")
        reg.set_gauge("service.queue_depth", 0.0)
        reg.set_gauge("service.running", 0.0)
        return time.perf_counter() - start

    def measure():
        reg = fresh_registry()
        bare, metered = [], []
        for trial in range(MAX_TRIALS):
            bare.append(run_bare())
            metered.append(run_metered(reg))
            if trial + 1 >= TRIALS and sum(bare) >= MIN_MEASURE_SECONDS:
                break
        ratio = statistics.median(
            m / b for b, m in zip(bare, metered)
        )
        return bare, metered, ratio - 1.0

    bare, metered, overhead = measure()
    attempts = 1
    while overhead > OBS_MAX_OVERHEAD and attempts < GATE_ATTEMPTS:
        retry_bare, retry_metered, retry = measure()
        if retry < overhead:
            bare, metered, overhead = retry_bare, retry_metered, retry
        attempts += 1
    gate_ok = overhead <= OBS_MAX_OVERHEAD
    report.update(
        rounds=len(bare),
        attempts=attempts,
        bare_wall_seconds=statistics.median(bare),
        metered_wall_seconds=statistics.median(metered),
        max_overhead=OBS_MAX_OVERHEAD,
        metrics={"overhead": overhead},
    )
    if not gate_ok:
        report["ok"] = False
    print(
        f"metrics registry: {len(bare)} interleaved rounds  bare "
        f"{report['bare_wall_seconds'] * 1e3:.1f}ms  metered "
        f"{report['metered_wall_seconds'] * 1e3:.1f}ms  overhead "
        f"{overhead * 100:+.2f}% (gate {OBS_MAX_OVERHEAD * 100:.0f}%, "
        f"{attempts} attempt(s))  [{'ok' if gate_ok else 'FAIL'}]"
    )
    return report


def check_bench_history(against: str, metrics: dict, out_dir: str) -> bool:
    """Gate ``metrics`` against the rolling-median history at ``against``.

    Prints the rendered diff, mirrors it to
    ``<out_dir>/BENCH_history_diff.txt`` (a CI artifact), and appends the
    current record so the baseline tracks the trajectory.  Returns False
    when any metric regressed.
    """
    from repro.obs import BenchHistory

    history = BenchHistory.at(against)
    verdicts = history.check(metrics)
    diff = history.render(verdicts)
    print(diff)
    if not metrics:
        print("bench history: no metrics to record (missing BENCH files?)")
        return True
    os.makedirs(out_dir, exist_ok=True)
    diff_path = os.path.join(out_dir, "BENCH_history_diff.txt")
    with open(diff_path, "w", encoding="utf-8") as f:
        f.write(diff + "\n")
    print(f"wrote {diff_path}")
    history.append(metrics)
    return not any(v.regressed for v in verdicts)


def run_functional_checks() -> bool:
    """Run the wall-clock-independent checks; return True on success."""
    ok = True
    cache_report = check_run_cache()
    print(
        "run cache: first pass "
        f"[{cache_report['first']}], second pass "
        f"[{cache_report['second']}]"
    )
    if not cache_report["zero_recompute"]:
        ok = False
    fault_report = check_fault_isolation()
    print(
        "fault isolation: first pass "
        f"[{fault_report['first']}], rerun "
        f"[{fault_report['second']}]  "
        f"[{'ok' if fault_report['ok'] else 'FAIL'}]"
    )
    if not fault_report["ok"]:
        ok = False
    if not check_graph_store(timed=False)["ok"]:
        ok = False
    if not check_stream(timed=False)["ok"]:
        ok = False
    if not check_metrics_registry(timed=False)["ok"]:
        ok = False
    return ok


def parse_against(argv) -> str | None:
    """Extract the ``--against <path>`` value from argv, if present."""
    for i, arg in enumerate(argv):
        if arg == "--against":
            if i + 1 >= len(argv):
                raise SystemExit("--against requires a path argument")
            return argv[i + 1]
        if arg.startswith("--against="):
            return arg.split("=", 1)[1]
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    against = parse_against(argv)
    out_dir = os.path.join(os.path.dirname(__file__), "results")
    if "--check-only" in argv:
        # Functional checks only (cache round-trip + fault isolation):
        # deterministic, so safe on loaded CI machines where the timing
        # gates would flake.  Writes no BENCH result files; with
        # --against it gates the *committed* BENCH_*.json metrics
        # against the history instead of fresh (load-sensitive) timing.
        ok = run_functional_checks()
        if against is not None:
            from repro.obs.bench_history import metrics_from_bench_dir

            metrics_dir = against if os.path.isdir(against) else out_dir
            metrics = metrics_from_bench_dir(metrics_dir)
            if not check_bench_history(against, metrics, out_dir):
                ok = False
        return 0 if ok else 1

    config = scaled_config(num_gpns=8, scale=1.0 / 256.0)  # 64 PEs
    baseline_cases = load_committed_baseline(out_dir)
    report = {
        "config": {"num_gpns": 8, "scale": 1.0 / 256.0, "pes": 64},
        "trials": TRIALS,
        "min_speedup": MIN_SPEEDUP,
        "cases": {},
    }
    failed = False
    timings = {}
    for case in CASES:
        timing = time_variants(case, config, OBS_VARIANTS)
        timings[case["name"]] = timing
        scalar, vector = timing["scalar"], timing["vectorized"]
        parity = same_result(scalar["result"], vector["result"])
        speedup = paired_speedup(timing)
        report["cases"][case["name"]] = {
            "workload": case["workload"],
            "quanta": vector["quanta"],
            "scalar_wall_seconds": scalar["wall_seconds"],
            "vectorized_wall_seconds": vector["wall_seconds"],
            "scalar_quanta_per_sec": scalar["quanta_per_sec"],
            "vectorized_quanta_per_sec": vector["quanta_per_sec"],
            "speedup": speedup,
            "parity": parity,
        }
        status = "ok" if parity and speedup >= MIN_SPEEDUP else "FAIL"
        if status == "FAIL":
            failed = True
        print(
            f"{case['name']:>12}: {vector['quanta']} quanta  "
            f"scalar {scalar['wall_seconds']:.3f}s  "
            f"vectorized {vector['wall_seconds']:.3f}s  "
            f"speedup {speedup:.2f}x  parity={parity}  [{status}]"
        )

    report["run_cache"] = check_run_cache()
    print(
        "run cache: first pass "
        f"[{report['run_cache']['first']}], second pass "
        f"[{report['run_cache']['second']}]"
    )
    if not report["run_cache"]["zero_recompute"]:
        failed = True

    report["fault_isolation"] = check_fault_isolation()
    print(
        "fault isolation: first pass "
        f"[{report['fault_isolation']['first']}], rerun "
        f"[{report['fault_isolation']['second']}]  "
        f"[{'ok' if report['fault_isolation']['ok'] else 'FAIL'}]"
    )
    if not report["fault_isolation"]["ok"]:
        failed = True

    obs_report = check_obs_overhead(baseline_cases, timings, config)
    if not obs_report["ok"]:
        failed = True

    registry_report = check_metrics_registry(timed=True)
    obs_report["metrics_registry"] = registry_report
    if not registry_report["ok"]:
        failed = True

    store_report = check_graph_store(timed=True)
    if not store_report["ok"]:
        failed = True

    stream_report = check_stream(timed=True)
    if not stream_report["ok"]:
        failed = True

    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "BENCH_hotpath.json")
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
    print(f"wrote {out_path}")
    obs_path = os.path.join(out_dir, "BENCH_obs.json")
    with open(obs_path, "w", encoding="utf-8") as f:
        json.dump(obs_report, f, indent=2)
    print(f"wrote {obs_path}")
    store_path = os.path.join(out_dir, "BENCH_graph_store.json")
    with open(store_path, "w", encoding="utf-8") as f:
        json.dump(store_report, f, indent=2)
    print(f"wrote {store_path}")
    stream_path = os.path.join(out_dir, "BENCH_stream.json")
    with open(stream_path, "w", encoding="utf-8") as f:
        json.dump(stream_report, f, indent=2)
    print(f"wrote {stream_path}")

    if against is not None:
        from repro.obs.bench_history import metrics_from_reports

        metrics = metrics_from_reports(
            report["cases"],
            obs_report.get("cases", {}),
            store_report.get("metrics", {}),
            registry_report.get("metrics", {}),
            stream_report.get("metrics", {}),
        )
        if not check_bench_history(against, metrics, out_dir):
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
