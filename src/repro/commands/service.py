"""Job-service verbs: ``serve``, ``worker``, ``submit``, ``status``,
``fetch``, ``trace`` and ``top``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional


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
    from repro.service.worker import LocalWorkerPool

    state_dir = args.state_dir or os.path.join(
        args.cache_dir or default_cache_dir(), "service"
    )
    service = ReproService(
        state_dir,
        cache_dir=args.cache_dir,
        max_queue_depth=args.queue_depth,
        job_workers=args.job_workers,
        drain_timeout=args.drain_timeout,
        lease_seconds=args.lease,
        max_requeues=args.max_requeues,
        quota_max_active=args.quota_max_active,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
    )

    pool: Optional[LocalWorkerPool] = None

    def on_ready(port: int) -> None:
        nonlocal pool
        print(
            f"repro service listening on http://{args.host}:{port}",
            flush=True,
        )
        print(f"  state: {state_dir}", flush=True)
        print(f"  cache: {service.runner.cache.root}", flush=True)
        if args.workers > 0:
            pool = LocalWorkerPool(
                f"http://{args.host}:{port}",
                count=args.workers,
                cache_dir=service.runner.cache.root,
                state_root=os.path.join(state_dir, "fleet"),
                host=args.host,
                lease_seconds=args.lease,
            )
            pids = pool.start()
            print(
                f"  fleet: {args.workers} local worker(s), pids "
                f"{','.join(str(p) for p in pids)}",
                flush=True,
            )

    try:
        summary = asyncio.run(
            service.serve_forever(args.host, args.port, on_ready=on_ready)
        )
    finally:
        if pool is not None:
            pool.stop()
    print(
        "drained: running "
        + ("finished" if summary["drained"] else "interrupted")
        + f", {summary['queued']} queued job(s) persisted for restart",
        flush=True,
    )
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    import asyncio

    from repro.runner import default_cache_dir
    from repro.service import ReproService
    from repro.service.worker import WorkerAgent

    state_dir = args.state_dir or os.path.join(
        args.cache_dir or default_cache_dir(), "worker"
    )
    service = ReproService(
        state_dir,
        cache_dir=args.cache_dir,
        max_queue_depth=args.queue_depth,
        job_workers=args.job_workers,
        drain_timeout=args.drain_timeout,
    )

    async def main() -> dict:
        port = await service.start(args.host, args.port)
        service._install_signal_handlers()
        advertise = args.advertise or f"http://{args.host}:{port}"
        agent = WorkerAgent(
            args.coordinator,
            advertise,
            capacity=args.capacity,
            lease_seconds=args.lease,
        )
        agent_task = asyncio.create_task(agent.run())
        print(
            f"repro worker listening on http://{args.host}:{port}",
            flush=True,
        )
        print(f"  coordinator: {args.coordinator}", flush=True)
        print(f"  cache: {service.runner.cache.root}", flush=True)
        assert service._stop is not None
        await service._stop.wait()
        await agent.stop()
        agent_task.cancel()
        try:
            await agent_task
        except asyncio.CancelledError:
            pass
        return await service.stop()

    summary = asyncio.run(main())
    print(
        "worker drained: running "
        + ("finished" if summary["drained"] else "interrupted")
        + f", {summary['queued']} queued job(s) persisted",
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
