"""``repro graph build/ls/gc/verify`` and ``repro generate``."""

from __future__ import annotations

import argparse
import dataclasses

from repro.units import bytes_to_human, parse_size


def _graph_variants(args: argparse.Namespace):
    """The GraphSpec recipes a ``repro graph build`` invocation names.

    ``--workloads`` mirrors the sweep grid's per-workload variants
    (sssp runs weighted, cc symmetrized), so prebuilding with the same
    workload list guarantees the sweep's exact artifacts exist.
    """
    from repro.runner.spec import GraphSpec, parse_workloads

    variants = {}
    for workload in parse_workloads(args.workloads):
        # --scale reaches the recipe as given, so a non-suite graph
        # refuses it here too instead of building unscaled.
        gspec = dataclasses.replace(
            GraphSpec.for_workload(args.graph, workload, seed=args.seed),
            scale=args.scale,
        )
        variants[gspec] = None  # de-dup, preserve order
    return list(variants)


def cmd_graph_build(args: argparse.Namespace) -> int:
    import time

    from repro.errors import ConfigError
    from repro.graph.store import GraphStore, spec_digest

    store = GraphStore(args.store_dir)
    for gspec in _graph_variants(args):
        digest = spec_digest(gspec)
        known = store.load(digest) is not None
        start = time.perf_counter()
        graph = store.get_or_build(gspec, gspec.build_uncached)
        elapsed = time.perf_counter() - start
        if not known and store.facts(digest) is None:
            # get_or_build falls back to the in-memory build; publishing
            # is this command's whole job.
            raise ConfigError(
                f"{gspec.spec} was built but not published: cannot write "
                f"to the graph store at {store.root}"
            )
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


def cmd_graph_ls(args: argparse.Namespace) -> int:
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


def cmd_graph_gc(args: argparse.Namespace) -> int:
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


def cmd_graph_verify(args: argparse.Namespace) -> int:
    from repro.graph.store import GraphStore

    store = GraphStore(args.store_dir)
    checked = evicted = 0
    for digest, manifest, problem in store.verify():
        checked += 1
        if problem is not None:
            evicted += 1
            spec = (manifest.get("provenance") or {}).get("spec") or {}
            print(f"evicted {digest[:12]} {spec.get('spec', '?')}: {problem}")
    print(f"verified {checked} artifact(s), evicted {evicted} ({store.root})")
    return 1 if evicted else 0


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.graph import io as graph_io
    from repro.graph.generators import with_uniform_weights
    from repro.graph.specifier import build_graph

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
