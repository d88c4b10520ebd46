"""``repro info``, ``repro resources`` and ``repro validate``."""

from __future__ import annotations

import argparse

from repro.units import bytes_to_human, rate_to_human


def cmd_info(args: argparse.Namespace) -> int:
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


def cmd_resources(args: argparse.Namespace) -> int:
    from repro.analysis.resources import terascale_requirements

    print("Resources to support WDC12 (Table IV):")
    for row in terascale_requirements():
        print("  " + row.row())
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.graph.specifier import build_graph
    from repro.validation import validate_all

    graph = build_graph(args.graph, seed=args.seed, scale=args.scale)
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
