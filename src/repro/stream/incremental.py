"""Incremental BFS / CC / PageRank over a delta overlay graph.

Each workload keeps a small *state* (the previous converged answer plus
whatever bookkeeping its algorithm needs) and exposes an incremental
update that seeds activation **only from delta-touched vertices**, in
the spirit of NOVA's message-driven activation model: work is
proportional to the region the deltas actually perturb, not to the
graph.

Correctness contract (the randomized equivalence suite in
``tests/stream`` exercises it):

- **BFS** -- edge inserts only shorten distances, so multi-source
  relaxation from the inserted edges' heads converges to exactly the
  cold BFS fixed point.  A deleted edge is *safe* when it was not
  tight (``dist[v] != dist[u] + 1``): non-tight edges lie on no
  shortest path, so removing them changes nothing.  A tight deletion
  may lengthen paths (not monotone), so it triggers a fallback to cold
  recomputation -- equivalence is guaranteed either way.
- **CC** -- labels are min-member-ids (matching
  :func:`repro.workloads.reference.connected_components`).  Inserts
  only merge components: min-label propagation seeded at the inserted
  endpoints converges to the exact post-delta labeling.  Any deletion
  may split a component, so deletions always fall back to cold.
- **PageRank** -- repair, then the cold loop on the merged CSR.  Each
  query merges the overlay into a CSR (``materialize()``, O(E), as a
  cold answer does).  On it the residual-push invariant of
  :class:`~repro.workloads.pagerank_delta.PageRankDelta`, ``p[v] + r[v]
  = (1-d)/n + d * sum_{(u,v)} p[u]/deg[u]``, is *repaired* by adjusting
  residuals at the changed sources' neighbors: degree rescaling for
  retained edges, ``+d*p[u]/deg_new`` per inserted copy and
  ``-d*p[u]/deg_old`` per deleted copy.  Then :func:`push_residuals`,
  the loop a cold answer runs from the uniform start, pushes it back
  under the threshold; both signs of residual push fine.  Inserts
  **and** deletes are handled; no fallback needed.  The fixed point is
  the same as a cold push on the post-delta graph up to the residual
  bound ``d/(1-d) * n * threshold`` -- with the default
  ``threshold=1e-12`` that is orders of magnitude below any meaningful
  tolerance, and the equivalence suite asserts it.

Cold recomputation runs on the overlay's materialized CSR through the
same oracles the rest of the repo trusts
(:mod:`repro.workloads.reference` for BFS/CC, :func:`push_pagerank`
below for PR), so "incremental == cold" is a statement about the
*published* semantics, not a private pair of algorithms agreeing with
each other.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.stream.overlay import DeltaOverlayGraph
from repro.workloads.reference import (
    UNREACHED,
    bfs_distances,
    connected_components,
)

__all__ = [
    "UNREACHED",
    "BfsState",
    "CCState",
    "PRState",
    "push_pagerank",
    "push_residuals",
    "cold_answer",
    "seed_state",
    "incremental_update",
]

#: Default residual threshold for streaming PageRank: tight enough
#: that incremental and cold answers agree far below any tolerance a
#: consumer could observe (bound: d/(1-d) * n * threshold).
PR_THRESHOLD = 1e-12
PR_DAMPING = 0.85
_PR_MAX_ROUNDS = 100_000


@dataclass
class BfsState:
    source: int
    dist: np.ndarray
    seq: int


@dataclass
class CCState:
    labels: np.ndarray
    seq: int


@dataclass
class PRState:
    rank: np.ndarray       # committed mass (push "p")
    residual: np.ndarray   # pending mass (push "r")
    out_deg: np.ndarray    # raw out-degrees at state time
    damping: float
    threshold: float
    seq: int


# ----------------------------------------------------------------------
# Vectorized residual-push PageRank (cold, seeded and incremental)
# ----------------------------------------------------------------------


def _scatter_add(residual: np.ndarray, idx: np.ndarray, vals) -> None:
    """Accumulate ``vals`` into ``residual`` at (possibly repeated) ``idx``.

    ``np.add.at`` handles repeats but runs an order of magnitude slower
    than ``np.bincount`` once the index set is wide; bincount pays an
    O(n) dense pass, so it only wins when the scatter is a sizable
    fraction of the array.
    """
    if idx.size >= residual.size // 8:
        residual += np.bincount(idx, weights=vals, minlength=residual.size)
    else:
        np.add.at(residual, idx, vals)


def push_residuals(
    graph: CSRGraph,
    rank: np.ndarray,
    residual: np.ndarray,
    damping: float = PR_DAMPING,
    threshold: float = PR_THRESHOLD,
) -> Tuple[int, int]:
    """Push ``(rank, residual)`` on ``graph`` until every ``|residual| <
    threshold``, in place; the one residual push, cold or incremental.

    Same semantics as :class:`~repro.workloads.pagerank_delta.
    PageRankDelta` (dangling mass leaks through ``safe_deg``): each
    round harvests every active vertex's residual into its rank and
    scatters ``d * r / safe_deg`` over its out-edges, one copy per
    multigraph edge.  Either sign of residual pushes, so a repaired
    incremental state converges like a fresh one.  Returns ``(rounds,
    pushes)``, pushes counting harvested vertices.
    """
    row_ptr = np.asarray(graph.row_ptr)
    col_idx = np.asarray(graph.col_idx)
    safe = np.maximum(
        np.asarray(graph.out_degrees(), dtype=np.int64), 1
    ).astype(np.float64)
    rounds = pushes = 0
    while rounds < _PR_MAX_ROUNDS:
        active = np.nonzero(np.abs(residual) >= threshold)[0]
        if active.size == 0:
            break
        rounds += 1
        pushes += int(active.size)
        harvested = residual[active].copy()
        rank[active] += harvested
        residual[active] = 0.0
        starts = row_ptr[active]
        lens = row_ptr[active + 1] - starts
        total = int(lens.sum())
        if total:
            offsets = np.repeat(np.cumsum(lens) - lens, lens)
            pos = np.arange(total) - offsets + np.repeat(starts, lens)
            _scatter_add(
                residual,
                col_idx[pos],
                np.repeat(damping * harvested / safe[active], lens),
            )
    return rounds, pushes


def push_pagerank(
    graph: CSRGraph,
    damping: float = PR_DAMPING,
    threshold: float = PR_THRESHOLD,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Residual-push PageRank on a CSR graph from the uniform start.

    Returns ``(rank, residual, rounds)``; the converged answer is
    ``rank + residual``.
    """
    n = graph.num_vertices
    rank = np.zeros(n, dtype=np.float64)
    residual = np.full(n, (1.0 - damping) / max(n, 1), dtype=np.float64)
    rounds, _ = push_residuals(graph, rank, residual, damping, threshold)
    return rank, residual, rounds


# ----------------------------------------------------------------------
# Cold answers + state seeding (materialized post-delta graph)
# ----------------------------------------------------------------------


def cold_answer(
    workload: str,
    graph: CSRGraph,
    source: Optional[int] = None,
    damping: float = PR_DAMPING,
    threshold: float = PR_THRESHOLD,
) -> np.ndarray:
    """The from-scratch answer on a materialized CSR graph."""
    if workload == "bfs":
        if source is None:
            raise ValueError("bfs needs a source")
        return bfs_distances(graph, int(source))[0]
    if workload == "cc":
        return connected_components(graph)[0]
    if workload == "pr":
        rank, residual, _ = push_pagerank(
            graph, damping=damping, threshold=threshold
        )
        return rank + residual
    raise ValueError(f"unsupported streaming workload {workload!r}")


def seed_state(
    workload: str,
    overlay: DeltaOverlayGraph,
    source: Optional[int] = None,
    damping: float = PR_DAMPING,
    threshold: float = PR_THRESHOLD,
):
    """Cold-compute on the overlay's current graph and wrap as a state.

    Returns ``(state, answer)``.
    """
    graph = overlay.materialize()
    seq = overlay.delta_seq
    if workload == "bfs":
        dist = bfs_distances(graph, int(source))[0]
        return BfsState(source=int(source), dist=dist, seq=seq), dist
    if workload == "cc":
        labels = connected_components(graph)[0]
        return CCState(labels=labels, seq=seq), labels
    if workload == "pr":
        rank, residual, _ = push_pagerank(
            graph, damping=damping, threshold=threshold
        )
        state = PRState(
            rank=rank,
            residual=residual,
            out_deg=np.asarray(graph.out_degrees(), dtype=np.int64).copy(),
            damping=damping,
            threshold=threshold,
            seq=seq,
        )
        return state, rank + residual
    raise ValueError(f"unsupported streaming workload {workload!r}")


# ----------------------------------------------------------------------
# Incremental updates
# ----------------------------------------------------------------------


def _incremental_bfs(
    overlay: DeltaOverlayGraph,
    state: BfsState,
    inserts: np.ndarray,
    deletes: np.ndarray,
) -> Optional[Tuple[np.ndarray, Dict[str, int]]]:
    dist = state.dist
    for u, v in deletes:
        u, v = int(u), int(v)
        if dist[u] != UNREACHED and dist[v] == dist[u] + 1:
            return None  # tight edge removed: distances may grow
    new = dist.copy()
    heap: list = []
    for u, v in inserts:
        u, v = int(u), int(v)
        if new[u] != UNREACHED and new[u] + 1 < new[v]:
            new[v] = new[u] + 1
            heapq.heappush(heap, (int(new[v]), v))
    relaxations = 0
    while heap:
        d, v = heapq.heappop(heap)
        if d != new[v]:
            continue  # stale queue entry
        for w in overlay.neighbors(v):
            w = int(w)
            relaxations += 1
            if d + 1 < new[w]:
                new[w] = d + 1
                heapq.heappush(heap, (d + 1, w))
    return new, {"relaxations": relaxations}


def _incremental_cc(
    overlay: DeltaOverlayGraph,
    state: CCState,
    inserts: np.ndarray,
    deletes: np.ndarray,
) -> Optional[Tuple[np.ndarray, Dict[str, int]]]:
    if deletes.shape[0]:
        return None  # a deletion may split a component
    labels = state.labels.copy()
    queue: deque = deque()
    for u, v in inserts:
        u, v = int(u), int(v)
        lu, lv = int(labels[u]), int(labels[v])
        if lu == lv:
            continue
        if lu < lv:
            labels[v] = lu
            queue.append(v)
        else:
            labels[u] = lv
            queue.append(u)
    relaxations = 0
    while queue:
        v = queue.popleft()
        lv = labels[v]
        for w in overlay.undirected_neighbors(v):
            w = int(w)
            relaxations += 1
            if labels[w] > lv:
                labels[w] = lv
                queue.append(w)
    return labels, {"relaxations": relaxations}


def _incremental_pr(
    overlay: DeltaOverlayGraph,
    state: PRState,
    inserts: np.ndarray,
    deletes: np.ndarray,
) -> Tuple[np.ndarray, Dict[str, int]]:
    damping, threshold = state.damping, state.threshold
    graph = overlay.materialize()
    out_deg = np.asarray(graph.out_degrees(), dtype=np.int64)
    rank = state.rank.copy()
    residual = state.residual.copy()
    # Group edge changes by source: the push invariant is repaired one
    # source at a time (its committed mass redistributes over its new
    # out-set at its new degree).
    changed: Dict[int, Tuple[list, list]] = {}
    for u, v in inserts:
        changed.setdefault(int(u), ([], []))[0].append(int(v))
    for u, v in deletes:
        changed.setdefault(int(u), ([], []))[1].append(int(v))
    for u, (ins, dels) in changed.items():
        p = float(rank[u])
        safe_old = float(max(int(state.out_deg[u]), 1))
        safe_new = float(max(int(out_deg[u]), 1))
        if p != 0.0:
            if safe_new != safe_old:
                current = graph.neighbors(u)
                retained = (
                    current[~np.isin(current, np.asarray(ins, np.int64))]
                    if ins
                    else current
                )
                if retained.size:
                    # Duplicate copies of a retained multigraph edge
                    # each rescale, hence add.at.
                    np.add.at(
                        residual,
                        retained,
                        damping * p * (1.0 / safe_new - 1.0 / safe_old),
                    )
            # A present pair holds pair_copies copies (its original-base
            # multiplicity), so weight each change by the copy count.
            for v in ins:
                residual[v] += (
                    overlay.pair_copies(u, v) * damping * p / safe_new
                )
            for v in dels:
                residual[v] -= (
                    overlay.pair_copies(u, v) * damping * p / safe_old
                )
    rounds, pushes = push_residuals(
        graph, rank, residual, damping, threshold
    )
    state.rank = rank
    state.residual = residual
    state.out_deg = out_deg
    return rank + residual, {"rounds": rounds, "pushes": pushes}


def incremental_update(
    workload: str,
    overlay: DeltaOverlayGraph,
    state,
    inserts: np.ndarray,
    deletes: np.ndarray,
):
    """Advance ``state`` to the overlay's head; returns ``(answer, stats)``.

    ``inserts`` / ``deletes`` are the *net* edge changes since
    ``state.seq`` (see :func:`repro.stream.delta.net_delta`).  On an
    unsafe update (tight BFS deletion, any CC deletion) the answer is
    recomputed cold on the materialized graph and the state re-seeded;
    ``stats["fallback"]`` reports which path ran.  Either way the
    returned answer equals cold recomputation on the post-delta graph
    (exactly for BFS/CC; within the residual bound for PR).
    """
    outcome = None
    if workload == "bfs":
        outcome = _incremental_bfs(overlay, state, inserts, deletes)
        if outcome is not None:
            state.dist = outcome[0]
    elif workload == "cc":
        outcome = _incremental_cc(overlay, state, inserts, deletes)
        if outcome is not None:
            state.labels = outcome[0]
    elif workload == "pr":
        outcome = _incremental_pr(overlay, state, inserts, deletes)
    else:
        raise ValueError(f"unsupported streaming workload {workload!r}")

    if outcome is None:
        source = state.source if isinstance(state, BfsState) else None
        fresh, answer = seed_state(workload, overlay, source=source)
        if isinstance(state, BfsState):
            state.dist = fresh.dist
        else:
            state.labels = fresh.labels
        state.seq = overlay.delta_seq
        return answer, {"fallback": 1}
    answer, stats = outcome
    state.seq = overlay.delta_seq
    stats["fallback"] = 0
    return answer, stats
