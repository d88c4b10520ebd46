"""Graph statistics used by benches and DESIGN/EXPERIMENTS reporting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class GraphSummary:
    """Headline statistics of a graph."""

    num_vertices: int
    num_edges: int
    avg_degree: float
    max_out_degree: int
    degree_p99: float
    approx_diameter: int
    reachable_fraction: float
    footprint_bytes: int

    def row(self) -> str:
        return (
            f"V={self.num_vertices:>10,}  E={self.num_edges:>12,}  "
            f"deg(avg/max)={self.avg_degree:6.1f}/{self.max_out_degree:<8,}  "
            f"diam~{self.approx_diameter:<5}  "
            f"reach={self.reachable_fraction:5.1%}"
        )


def bfs_levels(graph: CSRGraph, source: int) -> np.ndarray:
    """Hop distance from ``source``; -1 for unreachable vertices.

    The one level-synchronous BFS outside the engines, which the BFS
    oracle and :func:`~repro.graph.reorder.bfs_order` read.  Each level
    gathers its frontier's out-edges with one ragged index and
    deduplicates only the newly reached vertices.
    """
    if not 0 <= source < graph.num_vertices:
        raise GraphFormatError(f"source {source} out of range")
    level = np.full(graph.num_vertices, -1, dtype=np.int64)
    level[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        starts = graph.row_ptr[frontier]
        lens = graph.row_ptr[frontier + 1] - starts
        ends = np.cumsum(lens)
        # One ragged index of the frontier's out-edges, rebound to the
        # edges' heads so that the index is freed at the gather.
        heads = np.repeat(starts - (ends - lens), lens)
        heads += np.arange(ends[-1])
        heads = graph.col_idx[heads]
        frontier = np.unique(heads[level[heads] < 0])
        level[frontier] = depth
    return level


def approximate_diameter(graph: CSRGraph, samples: int = 4, seed: int = 3) -> int:
    """Lower-bound diameter estimate: max eccentricity over BFS samples."""
    if graph.num_vertices == 0:
        return 0
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, graph.num_vertices, size=max(1, samples))
    best = 0
    for source in sources:
        levels = bfs_levels(graph, int(source))
        reached = levels[levels >= 0]
        if reached.size:
            best = max(best, int(reached.max()))
    return best


def frontier_profile(graph: CSRGraph, source: int) -> np.ndarray:
    """Vertices discovered per BFS level (the workload's frontier shape)."""
    levels = bfs_levels(graph, source)
    reached = levels[levels >= 0]
    if reached.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.bincount(reached)


def summarize(graph: CSRGraph, diameter_samples: int = 2) -> GraphSummary:
    """Compute a :class:`GraphSummary` (BFS-based fields use sampling)."""
    degrees = graph.out_degrees()
    levels = bfs_levels(graph, 0) if graph.num_vertices else np.zeros(0)
    reachable = float(np.count_nonzero(levels >= 0)) / max(1, graph.num_vertices)
    return GraphSummary(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        avg_degree=float(degrees.mean()) if degrees.size else 0.0,
        max_out_degree=int(degrees.max()) if degrees.size else 0,
        degree_p99=float(np.percentile(degrees, 99)) if degrees.size else 0.0,
        approx_diameter=approximate_diameter(graph, samples=diameter_samples),
        reachable_fraction=reachable,
        footprint_bytes=graph.footprint_bytes(),
    )
