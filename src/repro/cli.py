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
- ``serve``     boot the async job service (HTTP, see :mod:`repro.service`)
- ``submit``    post one simulation job to a running service
- ``status``    service health + job ledger (or one job's detail)
- ``fetch``     download a completed job's result as JSON
- ``graph``     manage the content-addressed graph artifact store
  (``build`` prebuilds mmap-able CSR artifacts, ``ls`` lists them,
  ``gc`` evicts least-recently-used artifacts past a byte budget,
  ``verify`` re-hashes each against its manifest -- see
  :mod:`repro.graph.store`)
- ``generate``  build a synthetic graph and save it
- ``info``      print the system configuration (Table II) and tracker sizing
- ``resources`` print Table IV terascale requirements

Graph specifiers (``run --graph``, ``generate --kind``: ``rmat:16:16``,
``suite:twitter``, a file path, ...) are listed and parsed in
:mod:`repro.graph.specifier`.  ``--scale`` scales a ``suite:`` graph
together with the system's capacities (DESIGN section 6); other
specifiers ignore it.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Optional

from repro.errors import ReproError

# Every verb names its handler as "module:function".  ``run``'s lives
# here; every other verb's is in a repro.commands module that main
# imports only when that verb runs.  Each handler imports the
# subsystems it runs: a warm ``repro run`` answers from the run cache
# without loading the engine, the sweep supervisor, the baselines, the
# service or scipy.

#: Help of every ``--graph`` option: the forms repro.graph.specifier
#: parses, spelled out here so ``--help`` does not import it.
_GRAPH_HELP = (
    "graph specifier: rmat:SCALE[:EDGE_FACTOR], urand:VERTICES:EDGES, "
    "powerlaw:VERTICES:AVG_DEGREE, road:WIDTH:HEIGHT, suite:NAME, or a "
    ".npz/.txt/.el/.gr path"
)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.runner.cache import RunCache, spec_key
    from repro.runner.spec import lower_run

    kwargs = {}
    if args.workload == "pr":
        kwargs["max_supersteps"] = args.pr_supersteps
    spec = lower_run(
        args.workload,
        args.graph,
        seed=args.seed,
        system=args.system,
        gpns=args.gpns,
        scale=args.scale,
        source=args.source,
        placement=args.placement,
        onchip=args.onchip,
        vmu_mode=args.vmu_mode,
        workload_kwargs=kwargs,
    )

    # Single runs go through the same content-addressed cache as sweeps
    # and service jobs, so a repeated run (from any front end) is a hit.
    # A hit prints the summary stored in the entry's header, without
    # loading the result.  --verify runs uncached: the oracle pass
    # decorates the result with reference counts the cache key does
    # not distinguish.
    lines = None
    cache = None
    if not (args.verify or args.no_cache):
        cache = RunCache(args.cache_dir)
        key = spec_key(spec)
        lines = cache.load_summary(key)
        if lines is not None:
            print(f"cache hit {key[:12]} ({cache.root})")
        else:
            print(f"cache miss {key[:12]}")
    if lines is None:
        from repro.runner.execute import execute_spec

        run = execute_spec(spec)
        if cache is not None:
            try:
                cache.store(key, run)
            except OSError:
                pass  # a full disk must not fail a finished run
        if args.verify:
            from repro.core.system import check_against_oracle
            from repro.workloads import get_workload

            check_against_oracle(
                get_workload(spec.workload, **kwargs),
                spec.resolve_graph(),
                spec.source,
                run,
            )
        lines = run.summary_lines()

    for line in lines:
        print(line)
    if args.verify:
        print("  result verified against the sequential oracle")
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
                     help=_GRAPH_HELP)
    run.add_argument("--gpns", type=int, default=1)
    run.add_argument("--scale", type=float, default=1 / 256,
                     help="capacity (and suite: graph) scale vs Table II")
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
    run.set_defaults(handler="repro.cli:_cmd_run")

    def add_grid_args(parser: argparse.ArgumentParser) -> None:
        """The sweep-grid arguments `sweep` and `report` must share --
        `report` rebuilds the same grid to recompute the cache keys."""
        parser.add_argument("--graph", default="rmat:14:16",
                            help=_GRAPH_HELP)
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
                            "marker and recompute only unfinished runs")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-run wall-clock timeout in seconds "
                            "(default: REPRO_RUN_TIMEOUT or none)")
    sweep.add_argument("--retries", type=int, default=None,
                       help="extra attempts for transient failures "
                            "(default: REPRO_RUN_RETRIES or 1)")
    sweep.add_argument("--no-progress", action="store_true",
                       help="suppress the live progress line on stderr")
    sweep.set_defaults(handler="repro.commands.sweep:cmd_sweep")

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
    rep.set_defaults(handler="repro.commands.sweep:cmd_report")

    prof = sub.add_parser(
        "profile",
        help="run one instrumented NOVA simulation and attribute its time",
    )
    prof.add_argument("--workload", choices=("bfs", "cc", "sssp", "pr", "bc"),
                      default="bfs")
    prof.add_argument("--graph", default="rmat:12:8",
                      help=_GRAPH_HELP)
    prof.add_argument("--gpns", type=int, default=1)
    prof.add_argument("--scale", type=float, default=1 / 256,
                      help="capacity (and suite: graph) scale vs Table II")
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
    prof.set_defaults(handler="repro.commands.sweep:cmd_profile")

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
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       help="seconds to let running jobs finish on "
                            "SIGTERM before giving up")
    serve.add_argument("--quota-max-active", type=int, default=None,
                       help="per-tenant cap on concurrently active "
                            "jobs (429 above it)")
    serve.add_argument("--quota-rate", type=float, default=None,
                       help="per-tenant submissions per second "
                            "(token bucket; 429 above it)")
    serve.add_argument("--quota-burst", type=float, default=None,
                       help="token-bucket burst size (default: rate)")
    serve.set_defaults(handler="repro.commands.service:cmd_serve")

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
                        help=_GRAPH_HELP)
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
    submit.set_defaults(handler="repro.commands.service:cmd_submit")

    status = sub.add_parser(
        "status", help="show service health and the job ledger"
    )
    add_client_args(status)
    status.add_argument("job", nargs="?", default=None,
                        help="job id for a single-job detail view")
    status.set_defaults(handler="repro.commands.service:cmd_status")

    fetch = sub.add_parser(
        "fetch", help="fetch a completed job's result as JSON"
    )
    add_client_args(fetch)
    fetch.add_argument("job", help="job id")
    fetch.add_argument("--json", default=None,
                       help="write the payload here instead of stdout")
    fetch.set_defaults(handler="repro.commands.service:cmd_fetch")

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
    trace.set_defaults(handler="repro.commands.service:cmd_trace")

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
    top.set_defaults(handler="repro.commands.service:cmd_top")

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
                          help=_GRAPH_HELP)
    ssession.add_argument("--seed", type=int, default=42)
    ssession.add_argument("--client", default="cli",
                          help="client name for fairness accounting")
    ssession.set_defaults(handler="repro.commands.stream:cmd_stream_session")

    sls = ssub.add_parser("ls", help="list resident sessions")
    add_client_args(sls)
    sls.set_defaults(handler="repro.commands.stream:cmd_stream_ls")

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
    sapply.set_defaults(handler="repro.commands.stream:cmd_stream_apply")

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
    squery.set_defaults(handler="repro.commands.stream:cmd_stream_query")

    scompact = ssub.add_parser(
        "compact",
        help="merge a session's deltas into its base graph",
    )
    add_client_args(scompact)
    scompact.add_argument("session", help="session id")
    scompact.set_defaults(handler="repro.commands.stream:cmd_stream_compact")

    sclose = ssub.add_parser("close", help="close a session")
    add_client_args(sclose)
    sclose.add_argument("session", help="session id")
    sclose.set_defaults(handler="repro.commands.stream:cmd_stream_close")

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
                        help=_GRAPH_HELP)
    gbuild.add_argument("--seed", type=int, default=42)
    gbuild.add_argument("--scale", type=float, default=None,
                        help="suite: graph scale (default: suite default)")
    gbuild.add_argument("--workloads", default="bfs",
                        help="comma-separated workload list; builds the "
                             "exact per-workload variants a sweep over "
                             "these workloads will map (default: bfs, "
                             "the plain variant pr and bc map too)")
    add_store_arg(gbuild)
    gbuild.set_defaults(handler="repro.commands.graph:cmd_graph_build")

    gls = gsub.add_parser("ls", help="list stored graph artifacts")
    gls.add_argument("--json", action="store_true",
                     help="machine-readable listing with byte sizes")
    add_store_arg(gls)
    gls.set_defaults(handler="repro.commands.graph:cmd_graph_ls")

    ggc = gsub.add_parser(
        "gc", help="evict least-recently-used artifacts past a byte budget"
    )
    ggc.add_argument("--max-bytes", required=True,
                     help="byte budget, e.g. 512MiB or 2GiB")
    add_store_arg(ggc)
    ggc.set_defaults(handler="repro.commands.graph:cmd_graph_gc")

    gverify = gsub.add_parser(
        "verify",
        help="re-hash every artifact against its manifest; evict and "
             "exit 1 on a mismatch",
    )
    add_store_arg(gverify)
    gverify.set_defaults(handler="repro.commands.graph:cmd_graph_verify")

    gen = sub.add_parser("generate", help="build and save a graph")
    gen.add_argument("--kind", required=True, help="graph specifier")
    gen.add_argument("--out", required=True, help=".npz / .gr / .txt path")
    gen.add_argument("--weights", action="store_true")
    gen.add_argument("--seed", type=int, default=42)
    gen.set_defaults(handler="repro.commands.graph:cmd_generate")

    info = sub.add_parser("info", help="print the system configuration")
    info.add_argument("--gpns", type=int, default=1)
    info.add_argument("--scale", type=float, default=1.0)
    info.set_defaults(handler="repro.commands.info:cmd_info")

    res = sub.add_parser("resources", help="Table IV terascale sizing")
    res.set_defaults(handler="repro.commands.info:cmd_resources")

    val = sub.add_parser(
        "validate",
        help="run every workload on every engine and check the oracles",
    )
    val.add_argument("--graph", default="rmat:11:8", help="graph specifier")
    val.add_argument("--scale", type=float, default=1 / 256)
    val.add_argument("--seed", type=int, default=42)
    val.set_defaults(handler="repro.commands.info:cmd_validate")
    return parser


def _resolve_handler(handler: str):
    """The function a verb's "module:function" handler string names."""
    module, _, name = handler.partition(":")
    return getattr(importlib.import_module(module), name)


def main(argv: Optional[list] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return _resolve_handler(args.handler)(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
