"""Sequential reference implementations (correctness oracles).

Each function returns ``(answer, sequential_edges)`` where
``sequential_edges`` is the number of edges an efficient sequential
algorithm traverses -- the numerator of the paper's work-efficiency
metric (Section II-A).  Heavy lifting is delegated to scipy's compiled
graph kernels where available; pure-Python fallbacks keep the package
usable without scipy (at reduced speed).

scipy is imported on the first oracle call that can use it, not when
this module loads: importing it costs more than a warm ``repro run``,
and only ``--verify`` / ``repro validate`` ever consult the oracle.
"""

from __future__ import annotations

import heapq
from typing import Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.graph.csr import CSRGraph

UNREACHED = np.iinfo(np.int64).max

#: ``scipy.sparse.csgraph`` once probed, ``False`` if scipy is missing,
#: ``None`` until the first call that could use it.
_CSGRAPH = None


def _scipy_csgraph():
    """scipy's compiled graph kernels, or ``None`` without scipy."""
    global _CSGRAPH
    if _CSGRAPH is None:
        try:  # scipy is an optional accelerator, not a hard dependency
            from scipy.sparse import csgraph

            _CSGRAPH = csgraph
        except ImportError:
            _CSGRAPH = False
    return _CSGRAPH or None


def _as_scipy(graph: CSRGraph, weighted: bool):
    from scipy.sparse import csr_matrix

    data = (
        graph.weights
        if (weighted and graph.weights is not None)
        else np.ones(graph.num_edges)
    )
    return csr_matrix(
        (data, graph.col_idx, graph.row_ptr),
        shape=(graph.num_vertices, graph.num_vertices),
    )


def bfs_distances(graph: CSRGraph, source: int) -> Tuple[np.ndarray, int]:
    """Hop distances (UNREACHED where unreachable) + sequential edge count,
    the out-degree sum over reached vertices."""
    if not 0 <= source < graph.num_vertices:
        raise WorkloadError(f"source {source} out of range")
    from repro.graph.properties import bfs_levels

    dist = bfs_levels(graph, source)
    unreached = dist < 0
    dist[unreached] = UNREACHED
    edges = int(graph.out_degrees()[~unreached].sum())
    return dist, edges


def sssp_distances(graph: CSRGraph, source: int) -> Tuple[np.ndarray, int]:
    """Dijkstra distances (inf where unreachable) + sequential edge count."""
    if not 0 <= source < graph.num_vertices:
        raise WorkloadError(f"source {source} out of range")
    if graph.weights is None:
        raise WorkloadError("SSSP reference requires weights")
    if (graph.weights < 0).any():
        raise WorkloadError("Dijkstra requires non-negative weights")
    csgraph = _scipy_csgraph()
    if csgraph is not None:
        dist = csgraph.dijkstra(
            _as_scipy(graph, weighted=True), directed=True, indices=source
        )
    else:
        dist = _dijkstra_python(graph, source)
    reached = np.flatnonzero(np.isfinite(dist))
    edges = int(graph.out_degrees()[reached].sum())
    return dist, edges


def _dijkstra_python(graph: CSRGraph, source: int) -> np.ndarray:
    dist = np.full(graph.num_vertices, np.inf)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        start, end = graph.edge_range(v)
        for idx in range(start, end):
            u = graph.col_idx[idx]
            nd = d + graph.weights[idx]
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist


def connected_components(graph: CSRGraph) -> Tuple[np.ndarray, int]:
    """Min-vertex-id component labels (undirected) + sequential edge count.

    Labels are normalized so each component is labelled by its minimum
    member id -- the fixed point of min-label propagation, which is what
    the accelerator's CC workload converges to.
    """
    csgraph = _scipy_csgraph()
    if csgraph is not None:
        _, raw = csgraph.connected_components(
            _as_scipy(graph, weighted=False), directed=False
        )
    else:
        raw = _cc_python(graph)
    # Normalize: component id -> min vertex id inside it.
    mins = np.full(raw.max() + 1, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(mins, raw, np.arange(graph.num_vertices, dtype=np.int64))
    labels = mins[raw]
    return labels, graph.num_edges


def _cc_python(graph: CSRGraph) -> np.ndarray:
    parent = np.arange(graph.num_vertices, dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v, u in graph.iter_edges():
        rv, ru = find(v), find(u)
        if rv != ru:
            parent[max(rv, ru)] = min(rv, ru)
    return np.array([find(v) for v in range(graph.num_vertices)], dtype=np.int64)


def pagerank(
    graph: CSRGraph,
    damping: float = 0.85,
    tolerance: float = 1e-6,
    max_iterations: int = 100,
) -> Tuple[np.ndarray, int]:
    """Push-style power iteration matching the accelerator's BSP PR.

    Dangling vertices (out-degree 0) leak rank, exactly as a push-based
    message-driven implementation does; the oracle mirrors that choice so
    results are comparable bit-for-bit in the iteration limit.
    """
    n = graph.num_vertices
    if n == 0:
        return np.zeros(0), 0
    rank = np.full(n, 1.0 / n)
    out_deg = graph.out_degrees().astype(np.float64)
    safe_deg = np.maximum(out_deg, 1.0)
    src = graph.edge_sources()
    edges = 0
    for _ in range(max_iterations):
        contrib = rank / safe_deg
        accum = np.zeros(n)
        np.add.at(accum, graph.col_idx, contrib[src])
        new_rank = (1.0 - damping) / n + damping * accum
        edges += graph.num_edges
        delta = np.abs(new_rank - rank).sum()
        rank = new_rank
        if delta < tolerance:
            break
    return rank, edges


def betweenness(graph: CSRGraph, source: int) -> Tuple[np.ndarray, int]:
    """Single-source Brandes dependency scores (unweighted).

    Returns delta[v] = sum over targets t of sigma_st(v)/sigma_st, the
    quantity a BC accelerator accumulates per source.
    """
    if not 0 <= source < graph.num_vertices:
        raise WorkloadError(f"source {source} out of range")
    n = graph.num_vertices
    depth = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n)
    delta = np.zeros(n)
    depth[source] = 0
    sigma[source] = 1.0
    levels = [np.array([source], dtype=np.int64)]
    edges = 0
    degrees = graph.out_degrees()
    # Forward: level-synchronous shortest-path counting.
    while levels[-1].size:
        frontier = levels[-1]
        edges += int(degrees[frontier].sum())
        next_level = {}
        contributions = np.zeros(n)
        for v in frontier:
            start, end = graph.edge_range(v)
            for u in graph.col_idx[start:end]:
                if depth[u] == -1 or depth[u] == depth[v] + 1:
                    if depth[u] == -1:
                        depth[u] = depth[v] + 1
                        next_level[int(u)] = True
                    contributions[u] += sigma[v]
        sigma += contributions
        levels.append(np.fromiter(next_level.keys(), dtype=np.int64,
                                  count=len(next_level)))
    # Backward: accumulate dependencies from deepest level inward.
    for frontier in reversed(levels[:-1]):
        for v in frontier:
            start, end = graph.edge_range(v)
            for u in graph.col_idx[start:end]:
                if depth[u] == depth[v] + 1 and sigma[u] > 0:
                    delta[v] += sigma[v] / sigma[u] * (1.0 + delta[u])
                    edges += 1
    return delta, edges
