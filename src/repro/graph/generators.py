"""Synthetic graph generators standing in for the paper's inputs.

Table III evaluates NOVA on RoadUSA, Twitter, Friendster, Host (WDC), and
Urand.  None of those datasets ship with this repository, so we generate
synthetic graphs with the same *structural archetypes*:

- :func:`road_grid` -- high diameter, tiny uniform degree (RoadUSA).
- :func:`power_law` -- heavy-tailed degree distribution via the Chung-Lu
  model (Twitter, Friendster, Host are all scale-free social/web graphs).
- :func:`rmat` -- Kronecker/R-MAT graphs, the paper's weak-scaling input
  (RMAT21-24) and the classic Graph500 generator.
- :func:`uniform_random` -- Erdos-Renyi multigraphs (the paper's "Urand").

All generators take an explicit seed and are deterministic for a given
(numpy version, seed) pair.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def uniform_random(
    num_vertices: int, num_edges: int, seed: int = 1, dedup: bool = False
) -> CSRGraph:
    """Erdos-Renyi style multigraph: every edge picks endpoints uniformly."""
    if num_vertices <= 0 or num_edges < 0:
        raise GraphFormatError("need positive vertices and non-negative edges")
    rng = _rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    return CSRGraph.from_edges(src, dst, num_vertices, dedup=dedup)


def rmat(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 1,
    dedup: bool = False,
) -> CSRGraph:
    """R-MAT / Kronecker generator (Graph500 parameters by default).

    Generates ``edge_factor * 2**scale`` edges over ``2**scale`` vertices
    by recursively descending the adjacency matrix quadrants with
    probabilities (a, b, c, d = 1-a-b-c).
    """
    if scale <= 0 or scale > 30:
        raise GraphFormatError("scale must be in (0, 30]")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise GraphFormatError("quadrant probabilities must be non-negative")
    rng = _rng(seed)
    num_vertices = 1 << scale
    num_edges = edge_factor * num_vertices
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    # Descend one bit per level; vectorized over all edges at once.
    for level in range(scale):
        r = rng.random(num_edges)
        src_bit = (r >= a + b).astype(np.int64)
        # Within the chosen row half, pick the column half.
        upper_threshold = np.where(src_bit == 0, a / max(a + b, 1e-12), c / max(c + d, 1e-12))
        r2 = rng.random(num_edges)
        dst_bit = (r2 >= upper_threshold).astype(np.int64)
        src = (src << 1) | src_bit
        dst = (dst << 1) | dst_bit
    # Permute vertex ids so high-degree vertices are not clustered at 0.
    perm = rng.permutation(num_vertices).astype(np.int64)
    return CSRGraph.from_edges(perm[src], perm[dst], num_vertices, dedup=dedup)


def power_law(
    num_vertices: int,
    avg_degree: float,
    exponent: float = 2.1,
    seed: int = 1,
    dedup: bool = False,
) -> CSRGraph:
    """Chung-Lu graph with a Pareto expected-degree sequence.

    Produces the heavy-tailed degree distributions of social and web
    graphs (Twitter-like for exponent around 2, flatter for larger).
    """
    if num_vertices <= 0:
        raise GraphFormatError("num_vertices must be positive")
    if avg_degree <= 0:
        raise GraphFormatError("avg_degree must be positive")
    if exponent <= 1.0:
        raise GraphFormatError("exponent must be > 1")
    rng = _rng(seed)
    # Pareto(alpha) has mean alpha/(alpha-1) for alpha>1; rescale to hit
    # the requested average degree, and cap at the square root of the
    # weight sum (~sqrt(E)) to keep the Chung-Lu edge probabilities valid.
    alpha = exponent - 1.0
    raw = rng.pareto(alpha, size=num_vertices) + 1.0
    weights = raw * (avg_degree / raw.mean())
    cap = np.sqrt(weights.sum())
    weights = np.minimum(weights, cap)
    num_edges = int(round(avg_degree * num_vertices))
    # Sample endpoints proportional to weight: inverse-CDF on the
    # cumulative weight vector.
    cum = np.cumsum(weights)
    cum /= cum[-1]
    guide = _guide_table(cum)
    src = _inverse_cdf(cum, guide, rng.random(num_edges))
    dst = _inverse_cdf(cum, guide, rng.random(num_edges))
    # The CSR build sets this generator's peak memory: enter it holding
    # only the endpoints, not the per-vertex arrays or the guide table.
    del raw, weights, cum, guide
    return CSRGraph.from_edges(src, dst, num_vertices, dedup=dedup)


#: Draws per pass of :func:`_inverse_cdf`; bounds its temporaries.
_SAMPLE_CHUNK = 1 << 16


def _guide_table(cum: np.ndarray) -> np.ndarray:
    """Chen-Asau guide table over ``2 * len(cum)`` equal-width buckets.

    Entry ``k`` is the first index whose cumulative weight reaches the
    bucket's lower edge ``k / M``: ``searchsorted(cum, k / M)``.
    """
    buckets = 2 * cum.shape[0]
    return np.searchsorted(cum, np.arange(buckets) / buckets)


def _inverse_cdf(
    cum: np.ndarray, guide: np.ndarray, draws: np.ndarray
) -> np.ndarray:
    """Exactly ``np.searchsorted(cum, draws)`` for draws in ``[0, cum[-1]]``.

    Each draw starts at its bucket's guide entry, which can only lie at
    or before the answer, and steps forward to the first ``cum[i] >=
    u``.  Rounding of ``u * M`` can put a draw one bucket too high (its
    ``u`` is below that bucket's lower edge); those few draws take the
    binary search instead.  A bucket spans ~1/2 vertex of mass on
    average, so the scan is a handful of vectorized steps, where an
    unsorted binary search pays ~log2(V) cache misses per draw.
    """
    buckets = guide.shape[0]
    out = np.empty(draws.shape[0], dtype=np.int64)
    for lo in range(0, draws.shape[0], _SAMPLE_CHUNK):
        u = draws[lo:lo + _SAMPLE_CHUNK]
        bucket = (u * buckets).astype(np.int64)
        np.minimum(bucket, buckets - 1, out=bucket)
        idx = guide[bucket]
        # Same expression as the table's edges, so the check is exact.
        high = np.flatnonzero(u < bucket / buckets)
        if high.size:
            idx[high] = np.searchsorted(cum, u[high])
        step = np.flatnonzero(cum[idx] < u)
        while step.size:
            idx[step] += 1
            step = step[cum[idx[step]] < u[step]]
        out[lo:lo + _SAMPLE_CHUNK] = idx
    return out


def road_grid(width: int, height: int, seed: int = 1, diagonal_fraction: float = 0.02) -> CSRGraph:
    """A road-network stand-in: 2-D grid plus a sprinkle of shortcut edges.

    Grids share RoadUSA's defining properties: degree ~4, enormous
    diameter, and sparse frontiers.  A small fraction of random shortcut
    edges mimics highways without collapsing the diameter.
    """
    if width <= 0 or height <= 0:
        raise GraphFormatError("grid dimensions must be positive")
    if not 0.0 <= diagonal_fraction < 1.0:
        raise GraphFormatError("diagonal_fraction must be in [0, 1)")
    num_vertices = width * height
    ids = np.arange(num_vertices, dtype=np.int64).reshape(height, width)
    horiz_src = ids[:, :-1].ravel()
    horiz_dst = ids[:, 1:].ravel()
    vert_src = ids[:-1, :].ravel()
    vert_dst = ids[1:, :].ravel()
    src = np.concatenate([horiz_src, horiz_dst, vert_src, vert_dst])
    dst = np.concatenate([horiz_dst, horiz_src, vert_dst, vert_src])
    if diagonal_fraction > 0:
        rng = _rng(seed)
        extra = int(diagonal_fraction * src.shape[0])
        shortcut_src = rng.integers(0, num_vertices, size=extra, dtype=np.int64)
        # Shortcuts connect to nearby rows to preserve the high diameter.
        offset = rng.integers(-3 * width, 3 * width, size=extra, dtype=np.int64)
        shortcut_dst = np.clip(shortcut_src + offset, 0, num_vertices - 1)
        src = np.concatenate([src, shortcut_src, shortcut_dst])
        dst = np.concatenate([dst, shortcut_dst, shortcut_src])
    return CSRGraph.from_edges(src, dst, num_vertices, dedup=True)


def with_uniform_weights(
    graph: CSRGraph, low: float = 1.0, high: float = 256.0, seed: int = 7
) -> CSRGraph:
    """Attach uniform random edge weights in [low, high) to a graph."""
    if low <= 0 or high <= low:
        raise GraphFormatError("need 0 < low < high")
    rng = _rng(seed)
    weights = rng.uniform(low, high, size=graph.num_edges)
    return CSRGraph(graph.row_ptr, graph.col_idx, weights)
