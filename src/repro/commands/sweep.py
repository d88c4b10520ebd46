"""``repro sweep``, ``repro report`` and ``repro profile``."""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

from repro.errors import ConfigError


def _sweep_grid(args: argparse.Namespace):
    """Build the (spec, row) grid shared by ``sweep`` and ``report``.

    Both subcommands must resolve the *same* grid from the same
    arguments -- ``repro report`` recomputes the sweep's cache keys to
    read its results without re-running anything -- so the grid logic
    lives here.  Returns ``(specs, rows)`` with rows of
    ``(workload, gpns, source)`` aligned with the specs.
    """
    from repro.runner.spec import (
        SOURCELESS_WORKLOADS,
        GraphSpec,
        lower_run,
        sample_sources,
    )

    known = ("bfs", "cc", "sssp", "pr", "bc")
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    if not workloads:
        raise ConfigError(
            f"--workloads needs at least one of {', '.join(known)}, "
            "comma-separated, e.g. bfs,sssp"
        )
    for workload in workloads:
        if workload not in known:
            raise ConfigError(
                f"unknown workload {workload!r}; choose from {', '.join(known)}"
            )
    try:
        gpn_counts = [int(g) for g in args.gpns.split(",")]
    except ValueError:
        gpn_counts = []
    if not gpn_counts or min(gpn_counts) < 1:
        raise ConfigError(
            f"bad --gpns {args.gpns!r}; expected comma-separated positive "
            "GPN counts, e.g. 1,2,4,8"
        )
    specs = []
    rows = []  # (workload, gpns, source) aligned with specs
    for workload in workloads:
        if workload in SOURCELESS_WORKLOADS:
            sources = [None]
        else:
            graph = GraphSpec.for_workload(
                args.graph, workload, seed=args.seed, scale=args.scale
            ).build()
            sources = [
                int(s)
                for s in sample_sources(graph, args.sources, seed=args.seed)
            ]
        kwargs = (
            {"max_supersteps": args.pr_supersteps} if workload == "pr" else {}
        )
        for gpns in gpn_counts:
            for source in sources:
                specs.append(
                    lower_run(
                        workload,
                        args.graph,
                        seed=args.seed,
                        gpns=gpns,
                        scale=args.scale,
                        source=source,
                        placement=args.placement,
                        workload_kwargs=kwargs,
                        timeline=args.timeline,
                    )
                )
                rows.append((workload, gpns, source))
    return specs, rows


def _sweep_marker(cache_root: str, keys) -> tuple:
    """``(sweep id, marker path)`` for the sweep over ``keys``.

    The id is a digest of the sweep's sorted unique keys, so neither key
    order nor duplicate cells change it.  The marker is an empty file
    that only says the sweep started and did not finish: what finished
    is whatever the run cache holds.
    """
    digest = hashlib.sha256()
    for key in sorted(set(keys)):
        digest.update(key.encode())
        digest.update(b"\n")
    ident = digest.hexdigest()
    return ident[:12], os.path.join(cache_root, "sweeps", ident + ".jsonl")


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.obs import render_counts
    from repro.runner import (
        RetryPolicy,
        RunFailure,
        SweepMonitor,
        SweepRunner,
        spec_key,
    )

    specs, rows = _sweep_grid(args)

    policy = RetryPolicy.from_env()
    if args.timeout is not None or args.retries is not None:
        updates = {}
        if args.timeout is not None:
            updates["timeout_seconds"] = args.timeout
        if args.retries is not None:
            updates["retries"] = args.retries
        import dataclasses

        policy = dataclasses.replace(policy, **updates)
    runner = SweepRunner(
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        policy=policy,
    )

    marker = None
    if runner.cache is not None:
        keys = {spec_key(spec) for spec in specs}
        ident, marker = _sweep_marker(runner.cache.root, keys)
        if args.resume:
            if not os.path.exists(marker):
                raise ConfigError(
                    f"no interrupted sweep to resume (sweep {ident} not "
                    "found); run without --resume to start it"
                )
            done = sum(runner.cache.contains(key) for key in keys)
            print(
                f"resuming sweep {ident}: "
                f"{done}/{len(keys)} runs already cached"
            )
        os.makedirs(os.path.dirname(marker), exist_ok=True)
        open(marker, "a").close()
    elif args.resume:
        raise ConfigError("--resume needs the run cache (drop --no-cache)")

    monitor = (
        None
        if args.no_progress
        else SweepMonitor(stream=sys.stderr, interval_seconds=1.0)
    )
    results, stats = runner.run(specs, on_failure="return", monitor=monitor)

    print(f"{'workload':>8} {'gpns':>4} {'source':>8} {'time(ms)':>10} {'GTEPS':>8}")
    failures = []
    for (workload, gpns, source), run in zip(rows, results):
        src = "-" if source is None else str(source)
        if isinstance(run, RunFailure):
            failures.append(run)
            print(
                f"{workload:>8} {gpns:>4} {src:>8} "
                f"{'FAILED':>10} {run.kind:>8}"
            )
            continue
        print(
            f"{workload:>8} {gpns:>4} {src:>8} "
            f"{run.elapsed_seconds * 1e3:>10.4f} {run.gteps:>8.2f}"
        )
    print(stats)
    if stats.failed or stats.retried:
        # Per-sweep counter deltas, not the process-cumulative registry:
        # consecutive sweeps in one process each report their own counts.
        print(render_counts(stats.fault_counters))
        seen = set()
        for failure in failures:
            if failure.key in seen:
                continue
            seen.add(failure.key)
            print(f"  failed: {failure.describe()}")
    if marker is not None:
        if stats.failed:
            print(
                f"sweep {ident} unfinished; fix and rerun with --resume "
                "to recompute only unfinished runs"
            )
        else:
            try:
                os.unlink(marker)
            except OSError:
                pass
    return 1 if stats.failed else 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import (
        GROUPABLE_DIMS,
        SweepReport,
        entry_from_result,
    )
    from repro.runner import RunCache, spec_key

    group_by = tuple(
        dim.strip() for dim in args.group_by.split(",") if dim.strip()
    )
    for dim in group_by:
        if dim not in GROUPABLE_DIMS:
            raise ConfigError(
                f"cannot group by {dim!r}; choose from "
                f"{', '.join(GROUPABLE_DIMS)}"
            )

    specs, rows = _sweep_grid(args)
    cache = RunCache(args.cache_dir)
    keys = [spec_key(spec) for spec in specs]

    entries = []
    seen = set()
    found = 0
    for spec, key, (workload, gpns, source) in zip(specs, keys, rows):
        if key in seen:  # duplicate slots alias one cache entry
            continue
        seen.add(key)
        result = cache.load(key)
        if result is not None:
            found += 1
        entries.append(
            entry_from_result(
                key=key,
                workload=workload,
                graph=args.graph,
                gpns=gpns,
                source=source,
                result=result,
                pes=spec.config.num_pes if spec.config is not None else None,
            )
        )
    if not found:
        print(
            "error: no cached runs found for this grid; run the matching "
            "`repro sweep` first (same --graph/--workloads/--gpns/... "
            "arguments, including --timeline)",
            file=sys.stderr,
        )
        return 1
    if found < len(seen):
        # A partial grid is never mistaken for a complete one.
        print(
            f"note: {found}/{len(seen)} runs of this grid are cached; "
            "reporting on what finished",
            file=sys.stderr,
        )

    report = SweepReport(
        entries, group_by=group_by, z_threshold=args.z_threshold
    )
    markdown = report.render_markdown()
    print(markdown, end="")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            f.write(report.to_json())
        print(f"wrote {args.json}", file=sys.stderr)
    if args.md:
        with open(args.md, "w", encoding="utf-8") as f:
            f.write(markdown)
        print(f"wrote {args.md}", file=sys.stderr)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.core.system import NovaSystem
    from repro.obs import (
        FAULT_COUNTERS,
        BottleneckReport,
        ObsConfig,
        make_recorder,
        trace_span,
    )
    from repro.runner.spec import lower_run

    workload = args.workload
    kwargs = {}
    if workload == "pr":
        kwargs["max_supersteps"] = args.pr_supersteps
    spec = lower_run(
        workload,
        args.graph,
        seed=args.seed,
        gpns=args.gpns,
        scale=args.scale,
        source=args.source,
        placement=args.placement,
        workload_kwargs=kwargs,
    )

    obs = ObsConfig(
        timeline=True,
        timeline_capacity=args.timeline_capacity,
        phases=not args.no_phases,
        phase_sample_every=args.phase_every,
    )
    recorder = make_recorder(obs)
    # A RunSpec has no engine field, so --engine builds the system here.
    system = NovaSystem(
        spec.config,
        spec.resolve_graph(),
        placement=spec.placement,
        seed=spec.placement_seed,
        engine=args.engine,
    )
    # `--json` with no path streams the machine-readable report to
    # stdout; the rendered view moves to stderr so stdout stays pure
    # JSON for pipelines (`repro profile --json | jq ...`).
    json_stdout = args.json == "-"
    view = sys.stderr if json_stdout else sys.stdout
    print(system.describe(), file=view)
    with trace_span("cli.profile", workload=workload, graph=args.graph):
        run = system.run(
            workload, source=spec.source, recorder=recorder, **kwargs
        )
    print(run.describe(), file=view)
    print(file=view)
    report = BottleneckReport.from_timeline(run.timeline)
    print(report.render(), file=view)
    profiler = recorder.phase_profiler
    if profiler is not None:
        print(file=view)
        print(profiler.render(), file=view)
    # Sweep-level fault/retry/timeout accounting (nonzero only when this
    # process also drove instrumented sweeps, e.g. via the runner API).
    print(FAULT_COUNTERS.render(), file=view)
    if json_stdout:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif args.json:
        payload = {
            "report": report.to_dict(),
            "timeline": run.timeline,
            "phases": profiler.to_dict() if profiler is not None else None,
            "fault_counters": FAULT_COUNTERS.snapshot(),
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
        print(f"\nwrote {args.json}")
    return 0
