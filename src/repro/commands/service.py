"""Job-service verbs: ``serve``, ``submit``, ``status``, ``fetch``,
``trace`` and ``top``.
"""

from __future__ import annotations

import argparse
import os
import sys


def _job_spec_from_args(args: argparse.Namespace) -> dict:
    """A JSON job spec mirroring one ``repro run`` invocation."""
    spec = {
        "workload": args.workload,
        "graph": args.graph,
        "seed": args.seed,
        "system": args.system,
        "gpns": args.gpns,
        "scale": args.scale,
        "placement": args.placement,
        "timeline": args.timeline,
    }
    if args.source is not None:
        spec["source"] = args.source
    if args.workload == "pr":
        spec["workload_kwargs"] = {"max_supersteps": args.pr_supersteps}
    return spec


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.runner import default_cache_dir
    from repro.service import ReproService

    state_dir = args.state_dir or os.path.join(
        args.cache_dir or default_cache_dir(), "service"
    )
    service = ReproService(
        state_dir,
        cache_dir=args.cache_dir,
        max_queue_depth=args.queue_depth,
        job_workers=args.job_workers,
        drain_timeout=args.drain_timeout,
        quota_max_active=args.quota_max_active,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
    )

    def on_ready(port: int) -> None:
        print(
            f"repro service listening on http://{args.host}:{port}",
            flush=True,
        )
        print(f"  state: {state_dir}", flush=True)
        print(f"  cache: {service.runner.cache.root}", flush=True)

    summary = asyncio.run(
        service.serve_forever(args.host, args.port, on_ready=on_ready)
    )
    print(
        "drained: running "
        + ("finished" if summary["drained"] else "interrupted")
        + f", {summary['queued']} queued job(s) persisted for restart",
        flush=True,
    )
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import TERMINAL_STATES
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    job = client.submit(
        _job_spec_from_args(args), client=args.client, priority=args.priority
    )
    suffix = " (served from cache)" if job.get("cached") else ""
    print(f"job {job['id']}: {job['state']}{suffix}")
    if args.wait and job["state"] not in TERMINAL_STATES:
        job = client.wait(job["id"], timeout=args.wait_timeout)
        print(f"job {job['id']}: {job['state']}")
    if job["state"] == "done" and (args.wait or job.get("cached")):
        print(client.result(job["id"])["result"]["summary"])
    if job["state"] == "failed":
        print(
            f"error: {job.get('error_type')}: {job.get('error_message')}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    if args.job:
        print(json.dumps(client.job(args.job), indent=2, sort_keys=True))
        return 0
    health = client.health()
    print(
        f"service {health['status']} | queue "
        f"{health['queue_depth']}/{health['max_queue_depth']} | "
        f"running {health['running']}/{health['job_workers']}"
    )
    jobs = client.jobs()
    if not jobs:
        print("no jobs")
        return 0
    print(f"{'id':>16} {'state':>10} {'client':>12} {'prio':>4}  spec")
    for job in jobs:
        spec = job["spec"]
        cached = " (cached)" if job.get("cached") else ""
        print(
            f"{job['id']:>16} {job['state']:>10} {job['client']:>12} "
            f"{job['priority']:>4}  {spec['system']}/{spec['workload']} "
            f"{spec['graph']}{cached}"
        )
    return 0


def cmd_fetch(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    payload = client.result(args.job)
    print(payload["result"]["summary"], file=sys.stderr)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {args.json}", file=sys.stderr)
    else:
        print(text)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.stitch import (
        load_trace_records,
        render_tree,
        resolve_trace_id,
        stitch,
    )

    files = list(args.files)
    if not files:
        target = os.environ.get("REPRO_TRACE", "").strip()
        if target and target.lower() not in ("1", "true", "stderr"):
            files = [target]
    if not files:
        print(
            "error: no trace files -- pass paths or set REPRO_TRACE "
            "to a file path",
            file=sys.stderr,
        )
        return 1
    missing = [path for path in files if not os.path.exists(path)]
    if missing:
        print(f"error: no such trace file: {missing[0]}", file=sys.stderr)
        return 1
    records = load_trace_records(files)
    trace_id = resolve_trace_id(records, args.id)
    if trace_id is None:
        print(
            f"error: no trace matching {args.id!r} among "
            f"{len(records)} records",
            file=sys.stderr,
        )
        return 1
    roots, orphans = stitch(records, trace_id)
    print(render_tree(roots, orphans, trace_id))
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient
    from repro.service.top import ServiceTop

    top = ServiceTop(
        ServiceClient(args.url),
        stream=sys.stdout,
        interval_seconds=args.interval,
    )
    iterations = 1 if args.once else args.iterations
    top.run(iterations=iterations)
    return 0
