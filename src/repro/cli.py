"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``run``       simulate a workload on NOVA / PolyGraph / Ligra
- ``sweep``     run a (workload x GPN-count x source) sweep through the
  cached process-parallel runner (see :mod:`repro.runner`), with a live
  progress/ETA line on stderr
- ``report``    aggregate a cached sweep into a cross-run bottleneck /
  outlier report (markdown + schema-versioned JSON, see
  :mod:`repro.obs.report`)
- ``profile``   run one instrumented NOVA simulation and print a
  bottleneck-attribution report (see :mod:`repro.obs`)
- ``serve``     boot the async job service (HTTP, see :mod:`repro.service`);
  ``--workers N`` additionally spawns a local fleet of N worker
  subprocesses sharing the coordinator's run cache
- ``worker``    boot one fleet worker and join it to a coordinator
  (register + heartbeat over ``/v1/workers``)
- ``submit``    post one simulation job to a running service
- ``status``    service health + job ledger (or one job's detail)
- ``fetch``     download a completed job's result as JSON
- ``graph``     manage the content-addressed graph artifact store
  (``build`` prebuilds mmap-able CSR artifacts, ``ls`` lists them,
  ``gc`` evicts least-recently-used artifacts past a byte budget --
  see :mod:`repro.graph.store`)
- ``generate``  build a synthetic graph and save it
- ``info``      print the system configuration (Table II) and tracker sizing
- ``resources`` print Table IV terascale requirements

Graph specifiers (for ``run --graph`` and ``generate --kind``)::

    rmat:SCALE[:EDGE_FACTOR]      e.g. rmat:16:16
    urand:VERTICES:EDGES          e.g. urand:100000:3000000
    powerlaw:VERTICES:AVG_DEGREE  e.g. powerlaw:100000:35
    road:WIDTH:HEIGHT             e.g. road:300:300
    suite:NAME                    Table III stand-in (road/twitter/...)
    PATH                          .npz / .txt edge list / .gr DIMACS
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigError, ReproError
from repro.units import KiB, MiB, bytes_to_human, rate_to_human

if TYPE_CHECKING:
    from repro.graph.csr import CSRGraph

# Each verb imports the subsystems it runs, inside its handler: a warm
# ``repro run`` answers from the run cache without loading the engine,
# the baselines, the service or scipy.

_SIZE_UNITS = {"kib": KiB, "mib": MiB, "gib": 1 << 30, "b": 1}


def parse_size(text: str) -> int:
    """Parse '64KiB' / '1.5MiB' / '4096' into bytes."""
    lowered = text.strip().lower()
    for suffix, unit in _SIZE_UNITS.items():
        if lowered.endswith(suffix):
            return int(float(lowered[: -len(suffix)]) * unit)
    return int(lowered)


def build_graph(spec: str, seed: int = 42) -> "CSRGraph":
    """Resolve a graph specifier (see module docstring)."""
    from repro.graph import io as graph_io
    from repro.graph import suites
    from repro.graph.generators import (
        power_law,
        rmat,
        road_grid,
        uniform_random,
    )

    if ":" not in spec:
        if spec.endswith(".npz"):
            return graph_io.load_npz(spec)
        if spec.endswith(".gr"):
            return graph_io.load_dimacs(spec)
        if spec.endswith(".txt") or spec.endswith(".el"):
            return graph_io.load_edge_list(spec)
        raise ReproError(f"unrecognized graph specifier: {spec!r}")
    kind, _, rest = spec.partition(":")
    args = rest.split(":") if rest else []
    if kind == "rmat":
        scale = int(args[0])
        edge_factor = int(args[1]) if len(args) > 1 else 16
        return rmat(scale, edge_factor, seed=seed)
    if kind == "urand":
        return uniform_random(int(args[0]), int(args[1]), seed=seed)
    if kind == "powerlaw":
        return power_law(int(args[0]), float(args[1]), seed=seed)
    if kind == "road":
        return road_grid(int(args[0]), int(args[1]), seed=seed)
    if kind == "suite":
        return suites.build_graph(args[0], seed=seed)
    raise ReproError(f"unknown graph kind: {kind!r}")


def _run_config(args: argparse.Namespace):
    """The system config a ``repro run`` invocation describes."""
    if args.system == "nova":
        from repro.sim.config import scaled_config

        config = scaled_config(num_gpns=args.gpns, scale=args.scale)
        if args.vmu_mode != "tracker":
            config = config.with_updates(vmu_mode=args.vmu_mode)
        return config
    if args.system == "polygraph":
        from repro.baselines.polygraph import PolyGraphConfig

        onchip = (
            parse_size(args.onchip) if args.onchip else int(32 * MiB * args.scale)
        )
        return PolyGraphConfig(onchip_bytes=onchip)
    from repro.baselines.ligra import LigraConfig

    return LigraConfig()


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.runner import GraphSpec, RunCache, RunSpec, execute_spec, spec_key
    from repro.runner.spec import resolve_source

    workload = args.workload
    gspec = GraphSpec.for_workload(args.graph, workload, seed=args.seed)
    graph = gspec.build()
    source = resolve_source(graph, workload, args.source)
    kwargs = {}
    if workload == "pr":
        kwargs["max_supersteps"] = args.pr_supersteps
    config = _run_config(args)

    # Single runs go through the same content-addressed cache as sweeps
    # and service jobs, so a repeated run (from any front end) is a hit.
    # --verify runs uncached: the oracle pass decorates the result with
    # reference counts the cache key does not distinguish.
    if args.verify or args.no_cache:
        if args.system == "nova":
            from repro.core.system import NovaSystem

            system = NovaSystem(config, graph, placement=args.placement)
            print(system.describe())
        elif args.system == "polygraph":
            from repro.baselines.polygraph import PolyGraphSystem

            system = PolyGraphSystem(config, graph)
            print(
                f"PolyGraph: on-chip {bytes_to_human(config.onchip_bytes)}, "
                f"memory {rate_to_human(system.config.memory.peak_bandwidth)}"
            )
        else:
            from repro.baselines.ligra import LigraModel

            system = LigraModel(config, graph)
            print("Ligra software model (8 cores, 32 MiB L3, 400 GB/s)")
        run = system.run(
            workload, source=source, compute_reference=args.verify, **kwargs
        )
    else:
        spec = RunSpec(
            workload,
            gspec,
            config=config,
            system=args.system,
            source=source,
            placement=args.placement,
            workload_kwargs=kwargs,
        )
        cache = RunCache(args.cache_dir)
        key = spec_key(spec)
        run = cache.load(key)
        if run is not None:
            print(f"cache hit {key[:12]} ({cache.root})")
        else:
            print(f"cache miss {key[:12]}")
            run = execute_spec(spec)
            try:
                cache.store(key, run)
            except OSError:
                pass  # a full disk must not fail a finished run

    print(run.describe())
    for name, seconds in run.breakdown.items():
        print(f"  {name:>12}: {seconds * 1e3:9.4f} ms")
    for name, value in run.utilization.items():
        print(f"  util {name:>7}: {value:8.1%}")
    if args.verify:
        print("  result verified against the sequential oracle")
    return 0


def _sweep_grid(args: argparse.Namespace):
    """Build the (spec, row) grid shared by ``sweep`` and ``report``.

    Both subcommands must resolve the *same* grid from the same
    arguments -- ``repro report`` recomputes the sweep's cache keys to
    read its results without re-running anything -- so the grid logic
    lives here.  Returns ``(specs, rows)`` with rows of
    ``(workload, gpns, source)`` aligned with the specs.
    """
    from repro.core.harness import sample_sources
    from repro.obs.config import ObsConfig
    from repro.runner import GraphSpec, RunSpec
    from repro.sim.config import scaled_config

    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    known = ("bfs", "cc", "sssp", "pr", "bc")
    for workload in workloads:
        if workload not in known:
            raise ConfigError(
                f"unknown workload {workload!r}; choose from {', '.join(known)}"
            )
    gpn_counts = [int(g) for g in args.gpns.split(",")]
    obs = (
        ObsConfig(timeline=True)
        if getattr(args, "timeline", False)
        else None
    )
    specs = []
    rows = []  # (workload, gpns, source) aligned with specs
    for workload in workloads:
        # One GraphSpec recipe per workload variant: --seed flows into
        # the build (and so into the content-addressed key) on every
        # path, and run/sweep/service submissions of the same inputs
        # digest to the same cache entry.
        gspec = GraphSpec.for_workload(args.graph, workload, seed=args.seed)
        graph = gspec.build()
        if workload in ("cc", "pr"):
            sources = [None]
        else:
            sources = [
                int(s)
                for s in sample_sources(graph, args.sources, seed=args.seed)
            ]
        kwargs = (
            {"max_supersteps": args.pr_supersteps} if workload == "pr" else {}
        )
        for gpns in gpn_counts:
            config = scaled_config(num_gpns=gpns, scale=args.scale)
            for source in sources:
                specs.append(
                    RunSpec(
                        workload,
                        gspec,
                        config=config,
                        source=source,
                        placement=args.placement,
                        workload_kwargs=kwargs,
                        obs=obs,
                    )
                )
                rows.append((workload, gpns, source))
    return specs, rows


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.obs import render_counts
    from repro.runner import (
        RetryPolicy,
        RunFailure,
        SweepCheckpoint,
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

    checkpoint = None
    if runner.cache is not None:
        keys = [spec_key(spec) for spec in specs]
        checkpoint = SweepCheckpoint.for_keys(runner.cache.root, keys)
        if args.resume:
            if not checkpoint.exists():
                raise ConfigError(
                    "no interrupted sweep to resume (checkpoint "
                    f"{checkpoint.sweep_id[:12]} not found); run without "
                    "--resume to start it"
                )
            done = len(checkpoint.completed_keys() & set(keys))
            print(
                f"resuming sweep {checkpoint.sweep_id[:12]}: "
                f"{done}/{len(set(keys))} runs already checkpointed"
            )
    elif args.resume:
        raise ConfigError("--resume needs the run cache (drop --no-cache)")

    monitor = (
        None
        if args.no_progress
        else SweepMonitor(stream=sys.stderr, interval_seconds=1.0)
    )
    results, stats = runner.run(
        specs, on_failure="return", checkpoint=checkpoint, monitor=monitor
    )

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
    if checkpoint is not None:
        if stats.failed:
            print(
                f"checkpoint kept ({checkpoint.sweep_id[:12]}); fix and "
                "rerun with --resume to recompute only unfinished runs"
            )
        else:
            checkpoint.finish()
    return 1 if stats.failed else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import (
        GROUPABLE_DIMS,
        SweepReport,
        entry_from_result,
    )
    from repro.runner import RunCache, SweepCheckpoint, spec_key

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

    # An interrupted sweep leaves its checkpoint manifest behind; note
    # it so a partial report is never mistaken for a complete one.
    checkpoint = SweepCheckpoint.for_keys(cache.root, keys)
    if checkpoint.exists():
        done = len(checkpoint.completed_keys() & set(keys))
        print(
            f"note: sweep {checkpoint.sweep_id[:12]} is incomplete "
            f"({done}/{len(set(keys))} runs checkpointed); reporting on "
            "what finished",
            file=sys.stderr,
        )

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


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.core.system import NovaSystem
    from repro.obs import (
        FAULT_COUNTERS,
        BottleneckReport,
        ObsConfig,
        make_recorder,
        trace_span,
    )
    from repro.runner import GraphSpec
    from repro.runner.spec import resolve_source
    from repro.sim.config import scaled_config

    workload = args.workload
    gspec = GraphSpec.for_workload(args.graph, workload, seed=args.seed)
    graph = gspec.build()
    source = resolve_source(graph, workload, args.source)
    kwargs = {}
    if workload == "pr":
        kwargs["max_supersteps"] = args.pr_supersteps

    obs = ObsConfig(
        timeline=True,
        timeline_capacity=args.timeline_capacity,
        phases=not args.no_phases,
        phase_sample_every=args.phase_every,
    )
    recorder = make_recorder(obs)
    config = scaled_config(num_gpns=args.gpns, scale=args.scale)
    system = NovaSystem(
        config, graph, placement=args.placement, engine=args.engine
    )
    # `--json` with no path streams the machine-readable report to
    # stdout; the rendered view moves to stderr so stdout stays pure
    # JSON for pipelines (`repro profile --json | jq ...`).
    json_stdout = args.json == "-"
    view = sys.stderr if json_stdout else sys.stdout
    print(system.describe(), file=view)
    with trace_span("cli.profile", workload=workload, graph=args.graph):
        run = system.run(workload, source=source, recorder=recorder, **kwargs)
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


def _graph_variants(args: argparse.Namespace):
    """The GraphSpec recipes a ``repro graph build`` invocation names.

    ``--workloads`` mirrors the sweep grid's per-workload variants
    (sssp runs weighted, cc symmetrized), so prebuilding with the same
    workload list guarantees the sweep's exact artifacts exist.
    """
    from repro.runner import GraphSpec

    if args.workloads:
        workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
        variants = {}
        for workload in workloads:
            gspec = GraphSpec.for_workload(
                args.graph, workload, seed=args.seed, scale=args.scale
            )
            variants[gspec] = None  # de-dup, preserve order
        return list(variants)
    return [
        GraphSpec(
            args.graph,
            seed=args.seed,
            scale=args.scale,
            weighted=args.weighted,
            symmetrized=args.symmetrized,
        )
    ]


def _cmd_graph_build(args: argparse.Namespace) -> int:
    import time

    from repro.graph.store import GraphStore, spec_digest

    store = GraphStore(args.store_dir)
    for gspec in _graph_variants(args):
        digest = spec_digest(gspec)
        known = store.load(digest) is not None
        start = time.perf_counter()
        graph = store.get_or_build(gspec, gspec.build_uncached)
        elapsed = time.perf_counter() - start
        action = "mapped" if known else "built"
        flags = "".join(
            label
            for label, on in (
                ("+w", gspec.weighted),
                ("+sym", gspec.symmetrized),
            )
            if on
        )
        print(
            f"{action} {digest[:12]} {gspec.spec}{flags} "
            f"V={graph.num_vertices} E={graph.num_edges} "
            f"({elapsed:.2f}s, {store.root})"
        )
    return 0


def _cmd_graph_ls(args: argparse.Namespace) -> int:
    import time

    from repro.graph.store import GraphStore

    store = GraphStore(args.store_dir)
    entries = list(store.entries())
    if getattr(args, "json", False):
        import json

        now = time.time()
        rows = []
        for digest, size, mtime, manifest in sorted(
            entries, key=lambda item: item[2], reverse=True
        ):
            prov = manifest.get("provenance") or {}
            spec_fields = prov.get("spec") or {}
            rows.append({
                "digest": digest,
                "spec": spec_fields.get("spec"),
                "weighted": bool(spec_fields.get("weighted")),
                "symmetrized": bool(spec_fields.get("symmetrized")),
                "num_vertices": manifest.get("num_vertices", 0),
                "num_edges": manifest.get("num_edges", 0),
                "bytes": size,
                "age_seconds": max(0.0, now - mtime),
            })
        payload = {
            "root": str(store.root),
            "artifacts": rows,
            "total_bytes": sum(row["bytes"] for row in rows),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not entries:
        print(f"no graph artifacts in {store.root}")
        return 0
    print(f"{'digest':>12} {'spec':>24} {'V':>9} {'E':>11} {'size':>10} "
          f"{'last use':>9}")
    total = 0
    now = time.time()
    for digest, size, mtime, manifest in sorted(
        entries, key=lambda item: item[2], reverse=True
    ):
        total += size
        prov = manifest.get("provenance") or {}
        spec_fields = prov.get("spec") or {}
        label = spec_fields.get("spec", "?")
        if spec_fields.get("weighted"):
            label += "+w"
        if spec_fields.get("symmetrized"):
            label += "+sym"
        age = max(0.0, now - mtime)
        if age < 120:
            age_text = f"{age:.0f}s ago"
        elif age < 7200:
            age_text = f"{age / 60:.0f}m ago"
        else:
            age_text = f"{age / 3600:.0f}h ago"
        print(
            f"{digest[:12]:>12} {label:>24} "
            f"{manifest.get('num_vertices', 0):>9} "
            f"{manifest.get('num_edges', 0):>11} "
            f"{bytes_to_human(size):>10} {age_text:>9}"
        )
    print(f"{len(entries)} artifact(s), {bytes_to_human(total)} in {store.root}")
    return 0


def _cmd_graph_gc(args: argparse.Namespace) -> int:
    from repro.graph.store import GraphStore

    store = GraphStore(args.store_dir)
    max_bytes = parse_size(args.max_bytes)
    before = store.total_bytes()
    removed = store.prune(max_bytes)
    after = store.total_bytes()
    print(
        f"evicted {removed} artifact(s): {bytes_to_human(before)} -> "
        f"{bytes_to_human(after)} (budget {bytes_to_human(max_bytes)}, "
        f"{store.root})"
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.graph import io as graph_io
    from repro.graph.generators import with_uniform_weights

    graph = build_graph(args.kind, seed=args.seed)
    if args.weights:
        graph = with_uniform_weights(graph, seed=args.seed)
    if args.out.endswith(".npz"):
        graph_io.save_npz(graph, args.out)
    elif args.out.endswith(".gr"):
        graph_io.save_dimacs(graph, args.out)
    else:
        graph_io.save_edge_list(graph, args.out)
    print(f"wrote {graph} to {args.out}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.sim.config import scaled_config

    config = scaled_config(num_gpns=args.gpns, scale=args.scale)
    print(f"NOVA configuration (Table II, scale {args.scale:g}):")
    print(f"  GPNs x PEs:        {config.num_gpns} x {config.pes_per_gpn}")
    print(f"  frequency:         {config.frequency_hz / 1e9:.1f} GHz")
    print(f"  cache / PE:        {bytes_to_human(config.cache_bytes_per_pe)}")
    print(
        f"  vertex channel:    {bytes_to_human(config.vertex_channel.capacity_bytes)}"
        f" @ {rate_to_human(config.vertex_channel.peak_bandwidth)}"
    )
    print(
        f"  edge pool / GPN:   {bytes_to_human(config.edge_pool.capacity_bytes)}"
        f" @ {rate_to_human(config.edge_pool.peak_bandwidth)}"
    )
    print(
        f"  FUs / GPN:         {config.reduce_fus_per_gpn} reduce + "
        f"{config.propagate_fus_per_gpn} propagate"
    )
    print(
        f"  tracker:           superblock_dim={config.superblock_dim}, "
        f"{config.tracker_capacity_bits() / 8 / 1024:.1f} KiB per PE "
        f"(Eq 1-2)"
    )
    print(
        f"  on-chip / GPN:     {bytes_to_human(config.onchip_bytes_per_gpn())}"
    )
    return 0


def _cmd_resources(args: argparse.Namespace) -> int:
    from repro.analysis.resources import terascale_requirements

    print("Resources to support WDC12 (Table IV):")
    for row in terascale_requirements():
        print("  " + row.row())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validation import validate_all

    graph = build_graph(args.graph, seed=args.seed)
    reports = validate_all(graph, scale=args.scale)
    failed = 0
    for report in reports:
        print(report.summary())
        if not report.passed:
            failed += 1
    print(
        f"{len(reports) - failed}/{len(reports)} workloads validated "
        "across functional/NOVA/PolyGraph/Ligra"
    )
    return 1 if failed else 0


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


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from repro.runner import SweepRunner, default_cache_dir
    from repro.service import ReproService
    from repro.service.worker import LocalWorkerPool

    runner = SweepRunner(
        workers=args.run_workers, cache_dir=args.cache_dir
    )
    state_dir = args.state_dir or os.path.join(
        args.cache_dir or default_cache_dir(), "service"
    )
    service = ReproService(
        state_dir,
        runner=runner,
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
        print(f"  cache: {runner.cache.root}", flush=True)
        if args.workers > 0:
            pool = LocalWorkerPool(
                f"http://{args.host}:{port}",
                count=args.workers,
                cache_dir=runner.cache.root,
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


def _cmd_worker(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from repro.runner import SweepRunner, default_cache_dir
    from repro.service import ReproService
    from repro.service.worker import WorkerAgent

    runner = SweepRunner(
        workers=args.run_workers, cache_dir=args.cache_dir
    )
    state_dir = args.state_dir or os.path.join(
        args.cache_dir or default_cache_dir(), "worker"
    )
    service = ReproService(
        state_dir,
        runner=runner,
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
        print(f"  cache: {runner.cache.root}", flush=True)
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


def _cmd_submit(args: argparse.Namespace) -> int:
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


def _cmd_status(args: argparse.Namespace) -> int:
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


def _cmd_fetch(args: argparse.Namespace) -> int:
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


def _cmd_trace(args: argparse.Namespace) -> int:
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


def _cmd_top(args: argparse.Namespace) -> int:
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


def _parse_edge_list(text: Optional[str]) -> list:
    """``"1:2,3:4"`` -> ``[[1, 2], [3, 4]]`` (empty/None -> ``[]``)."""
    if not text:
        return []
    edges = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            src, dst = part.split(":")
            edges.append([int(src), int(dst)])
        except ValueError:
            raise ReproError(
                f"bad edge {part!r}: expected src:dst, e.g. 1:2"
            ) from None
    return edges


def _print_session(record: dict) -> None:
    print(
        f"session {record['id']}: {record['state']} {record['graph']} "
        f"seed={record['seed']} version={record['version_digest'][:12]} "
        f"deltas={record['delta_seq']}"
    )


def _cmd_stream_session(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    record = client.create_session(
        args.graph, seed=args.seed, client=args.client
    )
    _print_session(record)
    return 0


def _cmd_stream_ls(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    records = client.sessions()
    if not records:
        print("no sessions")
        return 0
    print(f"{'id':>16} {'state':>7} {'graph':>20} {'version':>12} "
          f"{'deltas':>6}  client")
    for record in records:
        print(
            f"{record['id']:>16} {record['state']:>7} "
            f"{record['graph']:>20} {record['version_digest'][:12]:>12} "
            f"{record['delta_seq']:>6}  {record['client']}"
        )
    return 0


def _cmd_stream_apply(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import ServiceClient

    inserts = _parse_edge_list(args.insert)
    deletes = _parse_edge_list(args.delete)
    if args.file:
        with open(args.file, "r", encoding="utf-8") as f:
            payload = json.load(f)
        inserts.extend(payload.get("inserts", []))
        deletes.extend(payload.get("deletes", []))
    if not inserts and not deletes:
        print("error: empty delta -- pass --insert/--delete/--file",
              file=sys.stderr)
        return 1
    client = ServiceClient(args.url)
    record = client.apply_delta(
        args.session, inserts=inserts, deletes=deletes
    )
    print(
        f"applied +{len(inserts)}/-{len(deletes)} edge(s): ",
        end="",
    )
    _print_session(record)
    return 0


def _cmd_stream_query(args: argparse.Namespace) -> int:
    import json

    from repro.service import TERMINAL_STATES
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    job = client.session_submit(
        args.session,
        workload=args.workload,
        mode=args.mode,
        source=args.source,
        client=args.client,
        priority=args.priority,
    )
    suffix = " (served from cache)" if job.get("cached") else ""
    print(f"job {job['id']}: {job['state']}{suffix}")
    if args.wait and job["state"] not in TERMINAL_STATES:
        job = client.wait(job["id"], timeout=args.wait_timeout)
        print(f"job {job['id']}: {job['state']}")
    if job["state"] == "done" and (args.wait or job.get("cached")):
        payload = client.result(job["id"])
        print(payload["result"]["summary"])
        if args.json:
            with open(args.json, "w", encoding="utf-8") as f:
                f.write(json.dumps(payload, indent=2, sort_keys=True))
            print(f"wrote {args.json}", file=sys.stderr)
    if job["state"] == "failed":
        print(
            f"error: {job.get('error_type')}: {job.get('error_message')}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_stream_compact(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    record = client.compact_session(args.session)
    print("compacted: ", end="")
    _print_session(record)
    return 0


def _cmd_stream_close(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    record = client.close_session(args.session)
    _print_session(record)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NOVA graph-accelerator reproduction (HPCA 2025)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a workload")
    run.add_argument("--system", choices=("nova", "polygraph", "ligra"),
                     default="nova")
    run.add_argument("--workload", choices=("bfs", "cc", "sssp", "pr", "bc"),
                     default="bfs")
    run.add_argument("--graph", default="rmat:14:16",
                     help="graph specifier (see --help header)")
    run.add_argument("--gpns", type=int, default=1)
    run.add_argument("--scale", type=float, default=1 / 256,
                     help="capacity scale vs Table II")
    run.add_argument("--placement", default="random",
                     choices=("interleave", "random", "load_balanced",
                              "locality"))
    run.add_argument("--vmu-mode", default="tracker",
                     choices=("tracker", "fifo"))
    run.add_argument("--onchip", default=None,
                     help="PolyGraph on-chip size, e.g. 128KiB")
    run.add_argument("--source", type=int, default=None,
                     help="source vertex (default: highest out-degree)")
    run.add_argument("--pr-supersteps", type=int, default=10)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--verify", action="store_true",
                     help="check results against the sequential oracle "
                          "(runs uncached)")
    run.add_argument("--no-cache", action="store_true",
                     help="recompute even if the run cache has this spec")
    run.add_argument("--cache-dir", default=None,
                     help="run-cache root (default: REPRO_CACHE_DIR or "
                          "~/.cache/repro-nova)")
    run.set_defaults(func=_cmd_run)

    def add_grid_args(parser: argparse.ArgumentParser) -> None:
        """The sweep-grid arguments `sweep` and `report` must share --
        `report` rebuilds the same grid to recompute the cache keys."""
        parser.add_argument("--graph", default="rmat:14:16",
                            help="graph specifier (see --help header)")
        parser.add_argument("--workloads", default="bfs",
                            help="comma-separated, e.g. bfs,sssp,pr")
        parser.add_argument("--gpns", default="1",
                            help="comma-separated GPN counts, e.g. 1,2,4,8")
        parser.add_argument("--sources", type=int, default=4,
                            help="sampled sources per traversal workload")
        parser.add_argument("--scale", type=float, default=1 / 256)
        parser.add_argument("--placement", default="random",
                            choices=("interleave", "random", "load_balanced",
                                     "locality"))
        parser.add_argument("--pr-supersteps", type=int, default=10)
        parser.add_argument("--seed", type=int, default=42)
        parser.add_argument("--timeline", action="store_true",
                            help="instrument every run with a per-quantum "
                                 "timeline (cached separately; gives "
                                 "`repro report` bottleneck shares)")
        parser.add_argument("--cache-dir", default=None,
                            help="run-cache root (default: REPRO_CACHE_DIR "
                                 "or ~/.cache/repro-nova)")

    sweep = sub.add_parser(
        "sweep",
        help="run a cached, process-parallel sweep of NOVA simulations",
    )
    add_grid_args(sweep)
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: REPRO_WORKERS or "
                            "cpu count)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="recompute every run and store nothing")
    sweep.add_argument("--resume", action="store_true",
                       help="resume an interrupted sweep: require its "
                            "checkpoint and recompute only unfinished runs")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-run wall-clock timeout in seconds "
                            "(default: REPRO_RUN_TIMEOUT or none)")
    sweep.add_argument("--retries", type=int, default=None,
                       help="extra attempts for transient failures "
                            "(default: REPRO_RUN_RETRIES or 1)")
    sweep.add_argument("--no-progress", action="store_true",
                       help="suppress the live progress line on stderr")
    sweep.set_defaults(func=_cmd_sweep)

    rep = sub.add_parser(
        "report",
        help="aggregate a cached sweep into a cross-run bottleneck report",
    )
    add_grid_args(rep)
    rep.add_argument("--group-by", default="workload,graph,gpns",
                     help="comma-separated grouping dimensions "
                          "(workload, graph, gpns, source)")
    rep.add_argument("--z-threshold", type=float, default=3.0,
                     help="flag runs whose throughput diverges from their "
                          "group by more than this many standard deviations")
    rep.add_argument("--json", default=None,
                     help="write the schema-versioned JSON report here")
    rep.add_argument("--md", default=None,
                     help="write the rendered markdown report here")
    rep.set_defaults(func=_cmd_report)

    prof = sub.add_parser(
        "profile",
        help="run one instrumented NOVA simulation and attribute its time",
    )
    prof.add_argument("--workload", choices=("bfs", "cc", "sssp", "pr", "bc"),
                      default="bfs")
    prof.add_argument("--graph", default="rmat:12:8",
                      help="graph specifier (see --help header)")
    prof.add_argument("--gpns", type=int, default=1)
    prof.add_argument("--scale", type=float, default=1 / 256,
                      help="capacity scale vs Table II")
    prof.add_argument("--placement", default="random",
                      choices=("interleave", "random", "load_balanced",
                               "locality"))
    prof.add_argument("--engine", default="vectorized",
                      choices=("vectorized", "scalar"))
    prof.add_argument("--source", type=int, default=None,
                      help="source vertex (default: highest out-degree)")
    prof.add_argument("--pr-supersteps", type=int, default=10)
    prof.add_argument("--seed", type=int, default=42)
    prof.add_argument("--timeline-capacity", type=int, default=4096,
                      help="ring-buffer quanta kept in the timeline")
    prof.add_argument("--phase-every", type=int, default=16,
                      help="sample wall-time one quantum in every N")
    prof.add_argument("--no-phases", action="store_true",
                      help="skip wall-clock phase profiling")
    prof.add_argument("--json", nargs="?", const="-", default=None,
                      help="bare --json: print the bottleneck report as "
                           "JSON on stdout (rendered view moves to "
                           "stderr); --json PATH: write the full payload "
                           "(report + timeline + phases) to PATH")
    prof.set_defaults(func=_cmd_profile)

    serve = sub.add_parser(
        "serve",
        help="run the async job service (submit simulations over HTTP)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8734,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--cache-dir", default=None,
                       help="run-cache root shared with run/sweep/report")
    serve.add_argument("--state-dir", default=None,
                       help="job-journal directory (default: "
                            "<cache-dir>/service)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="waiting jobs admitted before 429 backpressure")
    serve.add_argument("--job-workers", type=int, default=2,
                       help="jobs executed concurrently")
    serve.add_argument("--run-workers", type=int, default=1,
                       help="forked child processes per job (every job "
                            "runs in a supervised child)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       help="seconds to let running jobs finish on "
                            "SIGTERM before giving up")
    serve.add_argument("--workers", type=int, default=0,
                       help="spawn N local fleet workers sharing this "
                            "coordinator's run cache (0 = run jobs "
                            "in-process)")
    serve.add_argument("--lease", type=float, default=10.0,
                       help="worker lease in seconds; a worker missing "
                            "heartbeats this long is declared dead and "
                            "its jobs re-queue")
    serve.add_argument("--max-requeues", type=int, default=3,
                       help="times one job may be re-queued after "
                            "worker loss before failing")
    serve.add_argument("--quota-max-active", type=int, default=None,
                       help="per-tenant cap on concurrently active "
                            "jobs (429 above it)")
    serve.add_argument("--quota-rate", type=float, default=None,
                       help="per-tenant submissions per second "
                            "(token bucket; 429 above it)")
    serve.add_argument("--quota-burst", type=float, default=None,
                       help="token-bucket burst size (default: rate)")
    serve.set_defaults(func=_cmd_serve)

    worker = sub.add_parser(
        "worker",
        help="run one fleet worker and join it to a coordinator",
    )
    worker.add_argument("--coordinator", required=True,
                        help="coordinator base URL to register with")
    worker.add_argument("--host", default="127.0.0.1")
    worker.add_argument("--port", type=int, default=0,
                        help="listen port (0 picks a free one)")
    worker.add_argument("--advertise", default=None,
                        help="URL the coordinator should dial back "
                             "(default: http://<host>:<port>)")
    worker.add_argument("--cache-dir", default=None,
                        help="run-cache root; share the coordinator's "
                             "for zero-copy result hand-off")
    worker.add_argument("--state-dir", default=None,
                        help="job-journal directory (default: "
                             "<cache-dir>/worker)")
    worker.add_argument("--queue-depth", type=int, default=64)
    worker.add_argument("--job-workers", type=int, default=1,
                        help="jobs executed concurrently")
    worker.add_argument("--run-workers", type=int, default=1,
                        help="forked child processes per job")
    worker.add_argument("--capacity", type=int, default=1,
                        help="in-flight dispatches advertised to the "
                             "coordinator's router")
    worker.add_argument("--lease", type=float, default=None,
                        help="requested lease seconds (default: the "
                             "coordinator's lease)")
    worker.add_argument("--drain-timeout", type=float, default=30.0)
    worker.set_defaults(func=_cmd_worker)

    def add_client_args(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--url", default="http://127.0.0.1:8734",
                            help="service base URL")

    submit = sub.add_parser(
        "submit", help="submit one simulation job to a running service"
    )
    add_client_args(submit)
    submit.add_argument("--system", choices=("nova", "polygraph", "ligra"),
                        default="nova")
    submit.add_argument("--workload",
                        choices=("bfs", "cc", "sssp", "pr", "bc"),
                        default="bfs")
    submit.add_argument("--graph", default="rmat:14:16",
                        help="graph specifier (see --help header)")
    submit.add_argument("--gpns", type=int, default=1)
    submit.add_argument("--scale", type=float, default=1 / 256)
    submit.add_argument("--placement", default="random",
                        choices=("interleave", "random", "load_balanced",
                                 "locality"))
    submit.add_argument("--source", type=int, default=None)
    submit.add_argument("--pr-supersteps", type=int, default=10)
    submit.add_argument("--seed", type=int, default=42)
    submit.add_argument("--timeline", action="store_true",
                        help="instrument the run with a per-quantum "
                             "timeline")
    submit.add_argument("--client", default="cli",
                        help="client name for fairness accounting")
    submit.add_argument("--priority", type=int, default=0,
                        help="higher runs first")
    submit.add_argument("--wait", action="store_true",
                        help="long-poll events until the job settles")
    submit.add_argument("--wait-timeout", type=float, default=None,
                        help="give up waiting after this many seconds")
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser(
        "status", help="show service health and the job ledger"
    )
    add_client_args(status)
    status.add_argument("job", nargs="?", default=None,
                        help="job id for a single-job detail view")
    status.set_defaults(func=_cmd_status)

    fetch = sub.add_parser(
        "fetch", help="fetch a completed job's result as JSON"
    )
    add_client_args(fetch)
    fetch.add_argument("job", help="job id")
    fetch.add_argument("--json", default=None,
                       help="write the payload here instead of stdout")
    fetch.set_defaults(func=_cmd_fetch)

    trace = sub.add_parser(
        "trace",
        help="stitch REPRO_TRACE JSONL files into one trace's span tree",
    )
    trace.add_argument(
        "id",
        help="trace id (or unique prefix), traceparent, or job id",
    )
    trace.add_argument(
        "files", nargs="*", default=[],
        help="trace JSONL files (default: the REPRO_TRACE file)",
    )
    trace.set_defaults(func=_cmd_trace)

    top = sub.add_parser(
        "top", help="live dashboard over a running service"
    )
    add_client_args(top)
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between polls")
    top.add_argument("--iterations", type=int, default=None,
                     help="stop after this many frames (default: forever)")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit")
    top.set_defaults(func=_cmd_top)

    stream = sub.add_parser(
        "stream",
        help="resident graph sessions: deltas and incremental queries",
    )
    ssub = stream.add_subparsers(dest="stream_command", required=True)

    ssession = ssub.add_parser(
        "session", help="pin a base graph as a resident session"
    )
    add_client_args(ssession)
    ssession.add_argument("--graph", default="rmat:14:16",
                          help="graph specifier (see --help header)")
    ssession.add_argument("--seed", type=int, default=42)
    ssession.add_argument("--client", default="cli",
                          help="client name for fairness accounting")
    ssession.set_defaults(func=_cmd_stream_session)

    sls = ssub.add_parser("ls", help="list resident sessions")
    add_client_args(sls)
    sls.set_defaults(func=_cmd_stream_ls)

    sapply = ssub.add_parser(
        "apply", help="append one edge-delta batch to a session"
    )
    add_client_args(sapply)
    sapply.add_argument("session", help="session id")
    sapply.add_argument("--insert", default=None,
                        help="edges to insert, e.g. 1:2,3:4")
    sapply.add_argument("--delete", default=None,
                        help="edges to delete, e.g. 5:6")
    sapply.add_argument("--file", default=None,
                        help="JSON file with inserts/deletes arrays")
    sapply.set_defaults(func=_cmd_stream_apply)

    squery = ssub.add_parser(
        "query", help="run a workload against the session's current version"
    )
    add_client_args(squery)
    squery.add_argument("session", help="session id")
    squery.add_argument("--workload", choices=("bfs", "cc", "pr"),
                        default="pr")
    squery.add_argument("--mode", choices=("incremental", "cold"),
                        default="incremental",
                        help="incremental reuses resident state; cold "
                             "recomputes on the materialized graph")
    squery.add_argument("--source", type=int, default=None,
                        help="bfs source (default: highest out-degree)")
    squery.add_argument("--client", default="cli")
    squery.add_argument("--priority", type=int, default=0)
    squery.add_argument("--wait", action="store_true",
                        help="long-poll events until the job settles")
    squery.add_argument("--wait-timeout", type=float, default=None)
    squery.add_argument("--json", default=None,
                        help="write the result payload here")
    squery.set_defaults(func=_cmd_stream_query)

    scompact = ssub.add_parser(
        "compact",
        help="merge a session's deltas into a fresh published CSR",
    )
    add_client_args(scompact)
    scompact.add_argument("session", help="session id")
    scompact.set_defaults(func=_cmd_stream_compact)

    sclose = ssub.add_parser("close", help="close a session")
    add_client_args(sclose)
    sclose.add_argument("session", help="session id")
    sclose.set_defaults(func=_cmd_stream_close)

    graph = sub.add_parser(
        "graph",
        help="manage the graph artifact store (build once, mmap everywhere)",
    )
    gsub = graph.add_subparsers(dest="graph_command", required=True)

    def add_store_arg(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--store-dir", default=None,
                            help="artifact store root (default: "
                                 "REPRO_GRAPH_STORE_DIR or <cache>/graphs)")

    gbuild = gsub.add_parser(
        "build",
        help="prebuild a graph artifact so later runs map instead of build",
    )
    gbuild.add_argument("--graph", required=True,
                        help="graph specifier (see --help header)")
    gbuild.add_argument("--seed", type=int, default=42)
    gbuild.add_argument("--scale", type=float, default=None,
                        help="suite: graph scale (default: suite default)")
    gbuild.add_argument("--weighted", action="store_true",
                        help="attach uniform edge weights (the sssp variant)")
    gbuild.add_argument("--symmetrized", action="store_true",
                        help="symmetrize edges (the cc variant)")
    gbuild.add_argument("--workloads", default=None,
                        help="comma-separated workload list; builds the "
                             "exact per-workload variants a sweep over "
                             "these workloads will map (overrides "
                             "--weighted/--symmetrized)")
    add_store_arg(gbuild)
    gbuild.set_defaults(func=_cmd_graph_build)

    gls = gsub.add_parser("ls", help="list stored graph artifacts")
    gls.add_argument("--json", action="store_true",
                     help="machine-readable listing with byte sizes")
    add_store_arg(gls)
    gls.set_defaults(func=_cmd_graph_ls)

    ggc = gsub.add_parser(
        "gc", help="evict least-recently-used artifacts past a byte budget"
    )
    ggc.add_argument("--max-bytes", required=True,
                     help="byte budget, e.g. 512MiB or 2GiB")
    add_store_arg(ggc)
    ggc.set_defaults(func=_cmd_graph_gc)

    gen = sub.add_parser("generate", help="build and save a graph")
    gen.add_argument("--kind", required=True, help="graph specifier")
    gen.add_argument("--out", required=True, help=".npz / .gr / .txt path")
    gen.add_argument("--weights", action="store_true")
    gen.add_argument("--seed", type=int, default=42)
    gen.set_defaults(func=_cmd_generate)

    info = sub.add_parser("info", help="print the system configuration")
    info.add_argument("--gpns", type=int, default=1)
    info.add_argument("--scale", type=float, default=1.0)
    info.set_defaults(func=_cmd_info)

    res = sub.add_parser("resources", help="Table IV terascale sizing")
    res.set_defaults(func=_cmd_resources)

    val = sub.add_parser(
        "validate",
        help="run every workload on every engine and check the oracles",
    )
    val.add_argument("--graph", default="rmat:11:8", help="graph specifier")
    val.add_argument("--scale", type=float, default=1 / 256)
    val.add_argument("--seed", type=int, default=42)
    val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
