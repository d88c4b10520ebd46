"""Plan a terascale deployment and peek inside the pipeline.

Part 1 uses the analytical models (Eq 1-2, Table IV) to size NOVA,
PolyGraph, and Dalorex installations for graphs from Twitter-scale up to
WDC12 (128 B hyperlinks) -- the scaling argument of Section VI-E.

Part 2 records a per-quantum timeline and shows where a real run's
time goes (the Python-side equivalent of gem5's per-SimObject stats).

Run:  python examples/terascale_planning.py
"""

import numpy as np

from repro import scaled_config
from repro.analysis.resources import (
    GraphScale,
    WDC12,
    terascale_requirements,
    tracker_requirements,
)
from repro.core.engine import NovaEngine
from repro.graph.generators import power_law
from repro.obs import BottleneckReport, ObsConfig, make_recorder
from repro.units import MiB, bytes_to_human
from repro.workloads import get_workload


def part1_resource_planning() -> None:
    print("=== terascale resource planning (Table IV) ===\n")
    targets = [
        GraphScale("Twitter", 41_650_000, 1_460_000_000),
        GraphScale("AliGraph", 492_900_000, 6_820_000_000),
        WDC12,
    ]
    for graph in targets:
        print(
            f"{graph.name}: {graph.num_vertices / 1e9:.2f} B vertices, "
            f"{graph.num_edges / 1e9:.0f} B edges "
            f"({bytes_to_human(graph.footprint_bytes)})"
        )
        for row in terascale_requirements(graph):
            print("   " + row.row())
        tracker = tracker_requirements(graph.vertex_capacity_bytes)
        print(
            f"   NOVA tracker metadata: {tracker / 8 / MiB:.1f} MiB total "
            f"(Eq 1-2)\n"
        )


def part2_pipeline_trace() -> None:
    print("=== inside one run: per-quantum timeline ===\n")
    graph = power_law(100_000, avg_degree=20.0, seed=11)
    source = int(np.argmax(graph.out_degrees()))
    engine = NovaEngine(
        scaled_config(num_gpns=1, scale=1 / 256),
        graph,
        get_workload("bfs"),
        source=source,
        recorder=make_recorder(ObsConfig(timeline=True)),
    )
    run = engine.run()
    print(run.describe())
    print(BottleneckReport.from_timeline(run.timeline).render())
    # The busiest quantum, for flavour.
    columns = run.timeline["columns"]
    busiest = int(np.argmax(columns["messages_drained"]))
    print(
        f"busiest quantum #{columns['index'][busiest]}: drained "
        f"{columns['messages_drained'][busiest]:,} messages, inbox backlog "
        f"{columns['inbox_backlog'][busiest]:,}, "
        f"bottleneck={columns['bottleneck'][busiest]}"
    )


if __name__ == "__main__":
    part1_resource_planning()
    part2_pipeline_trace()
