"""Turn recorded spans into the per-layer metrics of ``BENCHMARK.json``.

A span's self time is its duration minus the part of it that its child
spans (same process) and rolled-up children cover.  A layer metric
``<layer>.<name>_s`` is the self time of every span of that name,
summed over the traced run; counts and rates come from span attributes.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Tuple

from e2ebench.spans import NESTED_AGGREGATES

#: Per-layer metric name -> unit, in ``BENCHMARK.json`` order.
PER_LAYER_UNITS: Dict[str, str] = {
    "cli.startup_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.exit_s": "s",
    "graph.build_s": "s",
    "graph.csr_s": "s",
    "graph.symmetrize_s": "s",
    "graph.build_medges_per_s": "Medges/s",
    "graph.publish_s": "s",
    "graph.map_s": "s",
    "graph.store_builds": "count",
    "graph.store_maps": "count",
    "runner.key_s": "s",
    "runner.cache_load_s": "s",
    "runner.cache_store_s": "s",
    "runner.sweep_s": "s",
    "runner.cell_busy_s": "s",
    "runner.cell_wait_s": "s",
    "runner.pool_idle_s": "s",
    "runner.retries": "count",
    "core.engine_s": "s",
    "core.mpu_s": "s",
    "core.vmu_s": "s",
    "core.mgu_s": "s",
    "core.close_s": "s",
    "core.medges_per_s": "Medges/s",
    "core.quanta_per_s": "1/s",
    "core.quanta": "count",
    "core.edges_traversed": "count",
    "core.sim_us": "us",
    "memory.cache_s": "s",
    "memory.cache_accesses": "count",
    "memory.cache_hit_ratio": "ratio",
    "service.submit_rtt_s": "s",
    "service.result_rtt_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.journal_s": "s",
    "service.cache_hit_ratio": "ratio",
    "service.job_p90_s": "s",
    "stream.delta_rtt_s": "s",
    "stream.delta_apply_s": "s",
    "stream.query_bfs_s": "s",
    "stream.query_pr_s": "s",
    "stream.journal_s": "s",
    "stream.fallback_ratio": "ratio",
    "stream.delta_query_p50_s": "s",
    "stream.delta_query_p90_s": "s",
    "loadgen.late_p90_s": "s",
    "loadgen.backlog_end": "count",
    "bench.trace_overhead_ratio": "ratio",
    "bench.unattributed_s": "s",
}

#: Span names whose summed self time is a ``<name>_s`` metric.
_SELF_TIME_SPANS = (
    "cli.startup", "cli.import", "cli.main", "cli.exit", "graph.build", "graph.csr",
    "graph.symmetrize", "graph.publish", "graph.map", "runner.key",
    "runner.cache_load", "runner.cache_store", "runner.sweep",
    "core.engine", "service.submit_rtt", "service.result_rtt",
    "service.journal", "stream.delta_rtt", "stream.delta_apply",
    "stream.query_bfs", "stream.query_pr", "stream.journal",
)


def _union(intervals: Iterable[Tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span id -> self time (never negative)."""
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = {}
    for span in spans:
        rolled = sum(
            seconds for name, (seconds, _) in span["agg"].items()
            if name not in NESTED_AGGREGATES
        )
        covered = _union(children.get(span["id"], ()))
        out[span["id"]] = max(0.0, span["end"] - span["start"] - covered - rolled)
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Every span-derived per-layer metric (zero where a layer is idle)."""
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    selfs = self_times(spans)
    by_name: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    agg: Dict[str, float] = defaultdict(float)
    for span in spans:
        by_name[span["name"]].append(span)
        if span["name"] in _SELF_TIME_SPANS:
            metrics[span["name"] + "_s"] += selfs[span["id"]]
        for name, (seconds, _) in span["agg"].items():
            agg[name] += seconds

    for phase in ("vmu", "mgu", "close"):
        metrics[f"core.{phase}_s"] = agg[f"core.{phase}"]
    metrics["core.mpu_s"] = max(0.0, agg["core.mpu"] - agg["memory.cache"])
    metrics["memory.cache_s"] = agg["memory.cache"]

    builds = by_name["graph.build"]
    build_seconds = sum(s["end"] - s["start"] for s in builds)
    built_edges = sum(s["attrs"].get("edges", 0) for s in builds)
    metrics["graph.build_medges_per_s"] = ratio(built_edges / 1e6, build_seconds)
    metrics["graph.store_builds"] = len(by_name["graph.publish"])
    metrics["graph.store_maps"] = sum(
        s["attrs"].get("hit", 0) for s in by_name["graph.map"]
    )

    engines = by_name["core.engine"]
    engine_seconds = sum(s["end"] - s["start"] for s in engines)

    def total(attr: str) -> float:
        return sum(s["attrs"].get(attr, 0) for s in engines)

    metrics["core.quanta"] = total("quanta")
    metrics["core.edges_traversed"] = total("edges_traversed")
    metrics["core.sim_us"] = total("sim_us")
    metrics["core.medges_per_s"] = ratio(total("edges_traversed") / 1e6, engine_seconds)
    metrics["core.quanta_per_s"] = ratio(total("quanta"), engine_seconds)
    accesses = total("cache_hits") + total("cache_misses")
    metrics["memory.cache_accesses"] = accesses
    metrics["memory.cache_hit_ratio"] = ratio(total("cache_hits"), accesses)
    return metrics


def unattributed(spans: List[Dict[str, Any]], ops: List[Dict[str, Any]]) -> float:
    """Op wall time that no span of the op covers, summed over ops.

    ``ops`` are ``{"op", "start", "end"}`` records timed by the
    benchmark; a span covers its op when it carries the op's id, in any
    process.
    """
    by_op: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    ids = {span["id"] for span in spans}
    for span in spans:
        if span["op"] and span["parent"] not in ids:
            by_op[span["op"]].append((span["start"], span["end"]))
    gap = 0.0
    for op in ops:
        clipped = [
            (max(s, op["start"]), min(e, op["end"]))
            for s, e in by_op.get(op["op"], ())
            if e > op["start"] and s < op["end"]
        ]
        gap += max(0.0, op["end"] - op["start"] - _union(clipped))
    return gap


def process_edges(spans: List[Dict[str, Any]], ops: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Start-up and exit spans of ops that each ran as one child process.

    ``cli.startup`` runs from the op's observed start to the child's
    first span (process creation, interpreter start-up, ``site``) and
    ``cli.exit`` from its last span to the op's observed end
    (interpreter teardown), both timed on the shared monotonic clock.
    The first and last spans are the benchmark's own (``bench.tracing``
    and ``bench.flush``), so neither stretch holds benchmark work.
    """
    bounds: Dict[str, List[float]] = {}
    for span in spans:
        if span["op"]:
            edge = bounds.setdefault(span["op"], [span["start"], span["end"]])
            edge[0] = min(edge[0], span["start"])
            edge[1] = max(edge[1], span["end"])
    edges = []
    for op in ops:
        if op["op"] not in bounds:
            continue
        first, last = bounds[op["op"]]
        for name, start, end in (("cli.startup", op["start"], first),
                                 ("cli.exit", last, op["end"])):
            edges.append({"id": f"{op['op']}:{name}", "parent": None,
                          "name": name, "pid": None, "tid": None,
                          "op": op["op"], "attrs": {}, "agg": {},
                          "start": start, "end": max(start, end)})
    return edges
