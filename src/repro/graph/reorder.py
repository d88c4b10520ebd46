"""Vertex reordering strategies.

The locality placement (Section IV-B) and the preprocessing-cost
discussion (Section II-C1) both revolve around graph reordering.  This
module provides the orders used in the repo:

- :func:`bfs_order` -- discovery order of a breadth-first traversal;
  cheap, and an effective locality proxy (neighbors end up nearby).
- :func:`degree_order` -- out-degree descending; the basis of the
  load-balanced placement.
- :func:`community_order` -- a lightweight RABBIT-style community
  grouping: repeated label propagation over shrinking label sets, then
  vertices sorted by (community, id).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph


def bfs_order(graph: CSRGraph, source: int = 0) -> np.ndarray:
    """Vertices in BFS discovery order; unreached vertices appended by id.

    A stable argsort of :func:`~repro.graph.properties.bfs_levels`:
    level by level, each level by id.
    """
    if not 0 <= source < graph.num_vertices:
        raise GraphFormatError(f"source {source} out of range")
    from repro.graph.properties import bfs_levels

    level = bfs_levels(graph, source)
    level[level < 0] = graph.num_vertices
    return np.argsort(level, kind="stable").astype(np.int64)


def degree_order(graph: CSRGraph) -> np.ndarray:
    """Vertices by out-degree descending (stable on ties)."""
    return np.argsort(-graph.out_degrees(), kind="stable").astype(np.int64)


def community_order(graph: CSRGraph, rounds: int = 10, seed: int = 1) -> np.ndarray:
    """Group vertices by label-propagation communities.

    Each round every vertex adopts the minimum label among itself and its
    out-neighbors' labels *with a random tie-scrambling pass* so the
    propagation finds local clusters rather than collapsing straight to
    connected components.  The result is vertices sorted by final label:
    vertices sharing a community become contiguous.
    """
    if rounds <= 0:
        raise GraphFormatError("rounds must be positive")
    num_vertices = graph.num_vertices
    rng = np.random.default_rng(seed)
    # Random initial labels break the id-ordering bias of raw min-label.
    labels = rng.permutation(num_vertices).astype(np.int64)
    src = graph.edge_sources()
    dst = graph.col_idx
    for _ in range(rounds):
        new_labels = labels.copy()
        # Pull the minimum neighbor label along each edge, both directions,
        # which mimics one sweep of community agglomeration.
        np.minimum.at(new_labels, src, labels[dst])
        np.minimum.at(new_labels, dst, labels[src])
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return np.argsort(labels, kind="stable").astype(np.int64)


def order_to_relabeling(order: np.ndarray) -> np.ndarray:
    """Convert an order (position -> vertex) to a relabeling (vertex -> new id)."""
    new_id = np.empty_like(order)
    new_id[order] = np.arange(order.shape[0], dtype=order.dtype)
    return new_id
