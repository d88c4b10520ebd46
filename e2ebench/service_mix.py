"""``service-mix``: a live ``repro serve`` under a fixed open-loop mix.

One load-generator process, two threads, at most two connections:

- thread (a) sends job submissions at seeded Poisson times (a fixed
  count spread uniformly at random over the window, i.e. a Poisson
  process conditioned on its count).  ``HIT_SHARE`` of them resubmit
  specs of the warm set computed at set-up; the rest are fresh
  simulations across workloads and GPN counts.  It never waits for one
  job before sending the next: between sends it long-polls the pending
  jobs' events.
- thread (b) sends session pairs at a fixed rate: a 32-edge delta batch
  (mostly inserts, some deletes of present edges) then an incremental
  BFS query; every ``PR_EVERY``-th pair adds an incremental PageRank
  query.  A pair starts at its due time or when its predecessor
  finishes, whichever is later.  Every ``COMPACT_EVERY``-th pair is
  followed by a session compaction, as a long-lived client would do:
  without it the overlay's dirty set, and with it the cost of every
  incremental query, grows for the whole run.

Latencies count from an op's due time to its result in hand; a failed
or refused op counts at ``FAILED_LATENCY``.  The window lasts
``--seconds`` whatever the service does, so ``wall_s`` is the latency
summed over the schedule's ops: the seconds its users spent waiting,
which grows as the service slows.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional

import numpy as np

from e2ebench import common, ledger, oracle, spans

HIT_SHARE = 0.7
JOB_RATE = 4.0
PAIR_RATE = 3.5
PR_EVERY = 5
COMPACT_EVERY = 10
DELTA_EDGES = 32
DELTA_DELETES = 4
SETUP_REPEATS = 5
TERMINAL = ("done", "failed", "cancelled")

#: The graph of the job mix, which is also the session's base graph.
SIZES = {"full": {"graph": "rmat:11:16"}, "tiny": {"graph": "rmat:8:8"}}

#: Warm set: (workload, gpns); BFS/SSSP get seeded sources.
WARM_SET = (("bfs", 1), ("sssp", 1), ("cc", 1), ("pr", 1), ("bfs", 2), ("pr", 2))
#: Fresh cc/pr variants, taken in this fixed order (bfs/sssp fresh jobs
#: differ by their seeded source instead).
FRESH_CC = (("interleave", 1), ("load_balanced", 1), ("locality", 1),
            ("interleave", 2), ("load_balanced", 2), ("locality", 2),
            ("interleave", 4), ("load_balanced", 4), ("locality", 4))
FRESH_PR = ((3, 1), (4, 2), (6, 1), (7, 2), (3, 4), (8, 1),
            (4, 4), (6, 2), (7, 4))
FRESH_ORDER = ("bfs", "sssp", "cc", "bfs", "sssp", "pr")


def _spec(graph, seed, workload, gpns, source=None, **extra) -> Dict[str, Any]:
    spec = {"workload": workload, "graph": graph, "seed": seed, "gpns": gpns}
    if source is not None:
        spec["source"] = int(source)
    if workload == "pr":
        spec["workload_kwargs"] = {"max_supersteps": extra.pop("supersteps", 10)}
    spec.update(extra)
    return spec


def plan(seed: int, seconds: float, size: str) -> Dict[str, Any]:
    """Every generated input: graph seed, schedule, specs, delta batches."""
    from repro.graph.store import spec_digest
    from repro.runner import GraphSpec
    from repro.stream.delta import EdgeDeltaBatch
    from repro.stream.overlay import DeltaOverlayGraph

    rng = np.random.default_rng(seed)
    graph = SIZES[size]["graph"]
    graph_seed = int(rng.integers(1, 2**31 - 1))
    gspec = GraphSpec(graph, seed=graph_seed)
    base = gspec.build_uncached()
    base_digest = spec_digest(gspec)
    live = np.flatnonzero(np.asarray(base.out_degrees()) > 0)

    warm = [
        _spec(graph, graph_seed, wl, gpns,
              int(rng.choice(live)) if wl in ("bfs", "sssp") else None)
        for wl, gpns in WARM_SET
    ]
    count = max(2, int(round(JOB_RATE * seconds)))
    fresh_count = int(round((1 - HIT_SHARE) * count))
    fresh_at = set(rng.permutation(count)[:fresh_count].tolist())
    seen = {json.dumps(s, sort_keys=True) for s in warm}
    fresh = []
    cc_i = pr_i = 0
    while len(fresh) < fresh_count:
        workload = FRESH_ORDER[len(fresh) % len(FRESH_ORDER)]
        if (workload == "cc" and cc_i == len(FRESH_CC)) or (
            workload == "pr" and pr_i == len(FRESH_PR)
        ):
            workload = "bfs"  # every cc/pr variant is taken: a long window
        if workload == "cc":
            placement, gpns = FRESH_CC[cc_i]
            cc_i += 1
            spec = _spec(graph, graph_seed, "cc", gpns, placement=placement)
        elif workload == "pr":
            supersteps, gpns = FRESH_PR[pr_i]
            pr_i += 1
            spec = _spec(graph, graph_seed, "pr", gpns, supersteps=supersteps)
        else:
            spec = _spec(graph, graph_seed, workload, 1 + len(fresh) % 2,
                         int(rng.choice(live)))
        key = json.dumps(spec, sort_keys=True)
        if key not in seen:
            seen.add(key)
            fresh.append(spec)
    due = np.sort(rng.uniform(0.0, seconds, size=count))
    jobs, fresh_iter = [], iter(fresh)
    for index in range(count):
        if index in fresh_at:
            jobs.append({"due": float(due[index]), "class": "fresh",
                         "spec": next(fresh_iter)})
        else:
            jobs.append({"due": float(due[index]), "class": "hit",
                         "spec": warm[int(rng.integers(len(warm)))]})

    overlay = DeltaOverlayGraph(base, base_digest=base_digest)
    src_all = np.asarray(base.edge_sources())
    dst_all = np.asarray(base.col_idx)
    # Inserts never restore a deleted base edge: on some delta sequences
    # that restore left the program's incremental PageRank ~1e-5 off
    # a cold recompute, far outside its documented bound.
    base_pairs = set(zip(src_all.tolist(), dst_all.tolist()))
    pairs = []
    for index in range(max(1, int(round(PAIR_RATE * seconds)))):
        chosen, deletes, inserts = set(), [], []
        while len(deletes) < DELTA_DELETES:
            e = int(rng.integers(base.num_edges))
            edge = (int(src_all[e]), int(dst_all[e]))
            if edge not in chosen and overlay.has_edge(*edge):
                chosen.add(edge)
                deletes.append(edge)
        while len(inserts) < DELTA_EDGES - DELTA_DELETES:
            u, v = (int(x) for x in rng.integers(base.num_vertices, size=2))
            if (u != v and (u, v) not in chosen and (u, v) not in base_pairs
                    and not overlay.has_edge(u, v)):
                chosen.add((u, v))
                inserts.append((u, v))
        batch = EdgeDeltaBatch(inserts, deletes)
        overlay.apply(batch)
        pairs.append({"due": index / PAIR_RATE, "batch": batch,
                      "pr": index % PR_EVERY == PR_EVERY - 1})
    return {"graph": graph, "graph_seed": graph_seed,
            "base": base, "base_digest": base_digest,
            "warm": warm, "jobs": jobs, "pairs": pairs,
            "bfs_source": int(rng.choice(live))}


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


class Deployment:
    """One booted server with its warm set computed and session seeded."""

    def __init__(self, p, work, tag, trace_dir=None) -> None:
        from repro.service import ServiceClient

        self.root = work.sub(tag)
        self.cache = os.path.join(self.root, "cache")
        self.store = os.path.join(self.root, "store")
        start = time.perf_counter()
        args = ["serve", "--host", "127.0.0.1", "--port", "0", "--state-dir",
                os.path.join(self.root, "state"), "--cache-dir", self.cache]
        self.server = common.Server(
            common.repro_argv(args, trace_dir, "serve"),
            common.pinned_env(self.cache, self.store),
        )
        self.url = self.server.url
        try:
            client = ServiceClient(self.url)
            for spec in p["warm"]:
                job = client.submit(spec, client="setup")
                if job["state"] not in TERMINAL:
                    job = client.wait(job["id"], timeout=120)
                if job["state"] != "done":
                    raise RuntimeError(f"warm-set job {job['state']}: {spec}")
            session = client.create_session(p["graph"], seed=p["graph_seed"],
                                             client="setup")
            self.session = session["id"]
            for workload in ("bfs", "pr"):
                job = client.session_submit(
                    self.session, workload=workload,
                    source=p["bfs_source"] if workload == "bfs" else None,
                    client="setup")
                if job["state"] not in TERMINAL:
                    job = client.wait(job["id"], timeout=120)
                if job["state"] != "done":
                    raise RuntimeError(f"session seed query {job['state']}")
        except BaseException:
            self.server.stop()
            raise
        self.setup_seconds = time.perf_counter() - start

    def stop(self) -> None:
        """Drain the server; it must exit cleanly."""
        code = self.server.stop()
        if code != 0:
            raise RuntimeError(f"repro serve exited {code}")


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------


def _failed(rec, exc) -> None:
    rec["error"] = f"{type(exc).__name__}: {exc}"
    rec["end"] = spans.clock()


def _jobs_thread(client, jobs, t0, records, recorder) -> None:
    """Send every job at its due time; collect results between sends."""
    from repro.errors import ServiceError

    pending: List[Dict[str, Any]] = []

    def settle(rec, state) -> None:
        if state != "done":
            rec["error"] = f"job settled {state}"
        else:
            with recorder.span("service.result_rtt", op=rec["op"]):
                payload = client.result(rec["job_id"])
            rec["sha"] = payload["result"]["result_sha256"]
        rec["end"] = spans.clock()

    index = 0
    while index < len(jobs) or pending:
        now = spans.clock()
        next_due = t0 + jobs[index]["due"] if index < len(jobs) else None
        if next_due is not None and next_due <= now:
            item = jobs[index]
            rec = {"op": f"job{index}", "class": item["class"],
                   "spec": item["spec"], "due": next_due, "sent": now}
            records.append(rec)
            index += 1
            try:
                with recorder.span("service.submit_rtt", op=rec["op"]):
                    job = client.submit(item["spec"], client="loadgen")
                rec["job_id"] = job["id"]
                if job["state"] in TERMINAL:
                    settle(rec, job["state"])
                else:
                    pending.append({"rec": rec, "since": 0})
            except ServiceError as exc:
                _failed(rec, exc)
            continue
        if not pending:
            time.sleep(max(0.0, next_due - now))
            continue
        # Long-poll the oldest pending job until the next send is due;
        # with several pending, poll each briefly in turn.
        head = pending[0]
        budget = 1.0 if next_due is None else max(0.0, next_due - now)
        if len(pending) > 1:
            budget = min(budget, 0.01)
        try:
            with recorder.span("service.wait", op=head["rec"]["op"]):
                _, head["since"], state = client.events(
                    head["rec"]["job_id"], since=head["since"], timeout=budget
                )
            if state in TERMINAL:
                pending.pop(0)
                settle(head["rec"], state)
            elif len(pending) > 1:
                pending.append(pending.pop(0))
        except ServiceError as exc:
            pending.remove(head)
            _failed(head["rec"], exc)


def _pairs_thread(client, session, p, t0, records, compactions, recorder) -> None:
    """Delta then incremental queries per pair, each pair at its due time."""
    from repro.errors import ServiceError

    for index, pair in enumerate(p["pairs"]):
        due = t0 + pair["due"]
        wait = due - spans.clock()
        if wait > 0:
            time.sleep(wait)
        op = f"pair{index}"
        rec = {"op": op, "due": due, "sent": spans.clock(), "answers": {}}
        records.append(rec)
        batch = pair["batch"]
        try:
            with recorder.span("stream.delta_rtt", op=op):
                state = client.apply_delta(session, inserts=batch.inserts.tolist(),
                                           deletes=batch.deletes.tolist())
            rec["version"] = state["version_digest"]
            for workload in ("bfs", "pr") if pair["pr"] else ("bfs",):
                with recorder.span("stream.query_rtt", op=op):
                    job = client.session_submit(
                        session, workload=workload,
                        source=p["bfs_source"] if workload == "bfs" else None,
                        client="loadgen")
                    if job["state"] not in TERMINAL:
                        job = client.wait(job["id"], timeout=120)
                    if job["state"] != "done":
                        raise ServiceError(f"{workload} query settled {job['state']}")
                    payload = client.result(job["id"])
                rec["answers"][workload] = {"sha": payload["result"]["result_sha256"],
                                            "key": payload["job"]["key"]}
            rec["end"] = spans.clock()
        except ServiceError as exc:
            _failed(rec, exc)
        if index % COMPACT_EVERY == COMPACT_EVERY - 1:
            compaction = {"op": f"compact{index}"}
            compactions.append(compaction)
            try:
                with recorder.span("stream.compact_rtt", op=compaction["op"]):
                    client.compact_session(session)
            except ServiceError as exc:
                _failed(compaction, exc)


def _metrics_snapshot(client) -> Dict[str, Any]:
    payload = client.metrics()
    return {"counters": payload["counters"], "histograms": payload["histograms"]}


def _drive(dep: Deployment, p, recorder) -> Dict[str, Any]:
    from repro.service import ServiceClient

    before = _metrics_snapshot(ServiceClient(dep.url))
    jobs, pairs, compactions = [], [], []
    t0 = spans.clock() + 0.05
    threads = [
        threading.Thread(target=_jobs_thread,
                         args=(ServiceClient(dep.url), p["jobs"], t0, jobs, recorder)),
        threading.Thread(target=_pairs_thread,
                         args=(ServiceClient(dep.url), dep.session, p, t0, pairs,
                               compactions, recorder)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(150.0)
    for rec in jobs + pairs:
        if "end" not in rec:
            _failed(rec, TimeoutError("no result before the load generator gave up"))
    after = _metrics_snapshot(ServiceClient(dep.url))
    return {"t0": t0, "jobs": jobs, "pairs": pairs, "compactions": compactions,
            "before": before, "after": after,
            "alive": any(t.is_alive() for t in threads)}


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------


def _pr_tolerance(num_vertices: int) -> float:
    """How far incremental and cold PageRank may differ.

    ``repro.stream.incremental`` puts each within ``d/(1-d) * n *
    threshold`` of the exact fixed point, so two answers may differ by
    twice that.
    """
    from repro.stream.incremental import PR_DAMPING, PR_THRESHOLD

    return 2 * PR_DAMPING / (1 - PR_DAMPING) * num_vertices * PR_THRESHOLD


def _verify(run, p, dep: Deployment, outcome: common.Outcome) -> None:
    """Job answers vs in-process execute_spec; session answers vs cold."""
    from repro.runner import RunCache, execute_spec
    from repro.service.store import JobSpec
    from repro.stream.incremental import cold_answer
    from repro.stream.overlay import DeltaOverlayGraph

    common.pin_process_env(os.path.join(dep.root, "verify-cache"), dep.store)
    expected: Dict[str, str] = {}
    for rec in run["jobs"]:
        outcome.attempted += 1
        if "error" in rec:
            outcome.failed += 1
            outcome.fail(f"{rec['op']}: {rec['error']}")
            continue
        key = json.dumps(rec["spec"], sort_keys=True)
        if key not in expected:
            result = execute_spec(JobSpec.from_dict(rec["spec"]).to_run_spec())
            expected[key] = oracle.result_sha256(result.result)
        if rec["sha"] != expected[key]:
            rec["error"] = "wrong answer"
            outcome.failed += 1
            outcome.fail(f"{rec['op']}: result differs from execute_spec")

    cache = RunCache(dep.cache)
    overlay = DeltaOverlayGraph(p["base"], base_digest=p["base_digest"])
    for rec, pair in zip(run["pairs"], p["pairs"]):
        outcome.attempted += 1
        overlay.apply(pair["batch"])
        if "error" in rec:
            outcome.failed += 1
            outcome.fail(f"{rec['op']}: {rec['error']}")
            continue
        problem = None
        if rec["version"] != overlay.version_digest:
            problem = "session version diverged from the replayed deltas"
        else:
            graph = overlay.materialize()
            bfs = cold_answer("bfs", graph, source=p["bfs_source"])
            if rec["answers"]["bfs"]["sha"] != oracle.result_sha256(bfs):
                problem = "incremental BFS differs from cold"
            elif pair["pr"]:
                served = cache.load(rec["answers"]["pr"]["key"])
                cold = cold_answer("pr", graph)
                gap = (np.inf if served is None
                       else float(np.max(np.abs(served.result - cold))))
                if gap > _pr_tolerance(graph.num_vertices):
                    problem = f"incremental PageRank differs from cold by {gap:.3g}"
        if problem is not None:
            rec["error"] = problem
            outcome.failed += 1
            outcome.fail(f"{rec['op']}: {problem}")
    for compaction in run["compactions"]:
        outcome.attempted += 1
        if "error" in compaction:
            outcome.failed += 1
            outcome.fail(f"{compaction['op']}: {compaction['error']}")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def _latency(rec) -> float:
    if "error" in rec:
        return common.FAILED_LATENCY
    return rec["end"] - rec["due"]


def _latencies(run) -> Dict[str, List[float]]:
    return {
        "jobs": [_latency(r) for r in run["jobs"]],
        "hit": [_latency(r) for r in run["jobs"] if r["class"] == "hit"],
        "fresh": [_latency(r) for r in run["jobs"] if r["class"] == "fresh"],
        "pairs": [_latency(r) for r in run["pairs"]],
    }


def _loadgen(run, seconds) -> Dict[str, float]:
    late = [r["sent"] - r["due"] for r in run["jobs"]]
    window_end = run["t0"] + seconds
    backlog = sum(
        1 for r in run["jobs"] + run["pairs"]
        if r["due"] <= window_end < r["sent"]
    )
    return {"loadgen.late_p90_s": common.percentile(late, 90),
            "loadgen.backlog_end": float(backlog)}


def _histogram_delta(run, name) -> float:
    def total(snap):
        return float(snap["histograms"].get(name, {}).get("sum", 0.0))
    return total(run["after"]) - total(run["before"])


def _counter_delta(run, name) -> float:
    return float(run["after"]["counters"].get(name, 0) - run["before"]["counters"].get(name, 0))


def _describe(lat) -> Dict[str, Any]:
    return {
        "job_p50_s": common.median(lat["jobs"]),
        "job_p90_s": common.percentile(lat["jobs"], 90),
        "delta_query_p50_s": common.median(lat["pairs"]),
        "delta_query_p90_s": common.percentile(lat["pairs"], 90),
        "samples": {k: len(v) for k, v in lat.items()},
        "beyond_p90": {"jobs": common.beyond(lat["jobs"], 90),
                       "pairs": common.beyond(lat["pairs"], 90)},
    }


def measure(seed: int, seconds: float, size: str,
            trace_out: Optional[str]) -> common.Outcome:
    outcome = common.Outcome()
    p = plan(seed, seconds, size)
    work = common.WorkDir("service-mix")
    deployments: List[Deployment] = []
    try:
        setups = []
        repeats = 1 if trace_out is not None else SETUP_REPEATS
        for repeat in range(repeats):
            dep = Deployment(p, work, f"dep{repeat}")
            deployments.append(dep)
            setups.append(dep.setup_seconds)
            if repeat < repeats - 1:
                dep.stop()
        dep = deployments[-1]
        run = _drive(dep, p, spans.NullRecorder())
        dep.stop()
        if run["alive"]:
            outcome.fail("load generator did not finish")
        _verify(run, p, dep, outcome)
        lat = _latencies(run)
        outcome.notes.update(_describe(lat))
        outcome.notes.update(_loadgen(run, seconds))
        if trace_out is None:
            outcome.metrics = {
                "setup_s": common.median(setups),
                "wall_s": sum(lat["jobs"]) + sum(lat["pairs"]),
                "warm_p50_s": common.median(lat["hit"]),
                "compute_mean_s": common.mean(lat["fresh"] + lat["pairs"]),
                "peak_rss_mib": common.children_maxrss_kib() / 1024.0,
            }
            return outcome

        trace_dir = os.path.join(work.path, "spans")
        recorder = spans.SpanRecorder()
        traced_dep = Deployment(p, work, "traced", trace_dir)
        deployments.append(traced_dep)
        traced = _drive(traced_dep, p, recorder)
        traced_dep.stop()
        recorder.flush(trace_dir)
        traced_outcome = common.Outcome()
        _verify(traced, p, traced_dep, traced_outcome)
        outcome.attempted += traced_outcome.attempted
        outcome.failed += traced_outcome.failed
        outcome.wrong.extend(traced_outcome.wrong)
        found = spans.load_spans(trace_dir)
        metrics = ledger.layer_metrics(found)
        notes = outcome.notes
        metrics.update({
            "service.queue_wait_s": _histogram_delta(traced, "service.queue_wait_seconds"),
            "service.run_s": _histogram_delta(traced, "service.run_seconds"),
            "service.cache_hit_ratio": ledger.ratio(
                _counter_delta(traced, "service.cache_hits"),
                _counter_delta(traced, "service.submitted")),
            "stream.fallback_ratio": ledger.ratio(
                _counter_delta(traced, "stream.fallbacks"),
                _counter_delta(traced, "stream.queries_incremental")),
            "service.job_p90_s": notes["job_p90_s"],
            "stream.delta_query_p50_s": notes["delta_query_p50_s"],
            "stream.delta_query_p90_s": notes["delta_query_p90_s"],
            "loadgen.late_p90_s": notes["loadgen.late_p90_s"],
            "loadgen.backlog_end": notes["loadgen.backlog_end"],
        })
        traced_lat = _latencies(traced)
        base_total = sum(lat["jobs"]) + sum(lat["pairs"])
        traced_total = sum(traced_lat["jobs"]) + sum(traced_lat["pairs"])
        metrics["bench.trace_overhead_ratio"] = traced_total / base_total - 1.0
        ops = [{"op": r["op"], "start": r["due"], "end": r["end"]}
               for r in traced["jobs"] + traced["pairs"] if "end" in r]
        metrics["bench.unattributed_s"] = ledger.unattributed(found, ops)
        outcome.metrics = metrics
        outcome.notes["spans"] = found
        return outcome
    finally:
        for dep in deployments:
            if dep.server.proc.returncode is None:
                dep.server.stop()
        work.close()
