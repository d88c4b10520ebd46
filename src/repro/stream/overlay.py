"""A mutable edge-delta overlay on top of a read-only base CSR graph.

:class:`DeltaOverlayGraph` is the first mutable graph representation in
a codebase designed around immutability, and it keeps that design
intact by construction: the base :class:`~repro.graph.csr.CSRGraph` is
never written (it typically *cannot* be -- store artifacts are
read-only ``np.memmap`` views), and all mutation lives in small
per-vertex side structures:

- ``_extra[v]``   -- out-neighbors inserted on top of the base row,
  one entry per copy
- ``_deleted[v]`` -- base out-neighbors masked out

plus mirrored in-direction structures so undirected traversal
(connected components) never needs to re-materialize.  Applying an
:class:`~repro.stream.delta.EdgeDeltaBatch` is strict: inserting an
edge that is currently present, or deleting one that is not, raises
:class:`~repro.errors.StreamError` -- the overlay's edge set is always
exactly "base minus deletions plus insertions" with no double counting.

Every applied batch advances a rolling **version digest**::

    v_0     = base artifact digest
    v_{n+1} = sha256(v_n + ":" + batch_n.digest())

which the service layer embeds into run-spec cache keys, so results
computed at one version can never alias another.

:meth:`DeltaOverlayGraph.compact` merges the deltas into a fresh CSR
and publishes it through the content-addressed
:class:`~repro.graph.store.GraphStore` under the *current version
digest*; the overlay then re-bases onto the published (mmap-backed)
artifact with empty deltas.  The version digest is unchanged, and so
is the graph it names: how many copies of a pair an insert adds is
read from the original base (:attr:`DeltaOverlayGraph.origin`), which
compaction never replaces, so compacted, uncompacted and
journal-replayed overlays hold the same edge multiset at every
version and cached results stay valid across compaction and restart.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import StreamError
from repro.graph.csr import CSRGraph
from repro.stream.delta import EdgeDeltaBatch, edge_keys

__all__ = ["DeltaOverlayGraph", "chain_digest"]


def _row_count(graph: CSRGraph, u: int, v: int) -> int:
    """Copies of ``(u, v)`` in ``graph`` (rows are sorted)."""
    nbrs = graph.neighbors(u)
    return int(np.searchsorted(nbrs, v, side="right")) - int(
        np.searchsorted(nbrs, v, side="left")
    )


def chain_digest(version: str, batch: EdgeDeltaBatch) -> str:
    """The next version digest after applying ``batch`` at ``version``."""
    return hashlib.sha256(
        f"{version}:{batch.digest()}".encode()
    ).hexdigest()


class DeltaOverlayGraph:
    """Per-vertex edge deltas layered over a read-only base CSR.

    The base graph must be unweighted: the streaming workloads (BFS,
    CC, PageRank) are topology-only, and weighted delta semantics
    (which weight wins on re-insert?) have no consumer yet.

    Base graphs may be multigraphs (the R-MAT generator emits duplicate
    edges).  Deltas operate on *pairs*, and a present pair always holds
    :meth:`pair_copies` copies -- its multiplicity in the original base,
    or one if it was never there: deleting ``(u, v)`` removes every
    copy, re-inserting it brings that many back, whether the pair is
    restored from the current base or added as overlay copies after a
    compaction dropped it.  Edge counts track copies so the overlay
    always agrees with its own :meth:`materialize` -- PageRank is
    multiplicity-sensitive, so this is a correctness contract, not an
    accounting nicety.
    """

    def __init__(self, base: CSRGraph, base_digest: Optional[str] = None) -> None:
        if base.has_weights:
            raise StreamError(
                "streaming overlays require an unweighted base graph"
            )
        if base_digest is None:
            from repro.runner.cache import graph_digest

            base_digest = graph_digest(base)
        self.base = base
        #: The base the overlay was opened on; :meth:`compact` replaces
        #: :attr:`base` but never this, so :meth:`pair_copies` answers
        #: the same at every version.
        self.origin = base
        self.base_digest = base_digest
        self.version_digest = base_digest
        self.delta_seq = 0
        #: Applied batches, oldest first; incremental workload states
        #: replay ``batches[state.seq:]`` to catch up to the head.
        self.batches: List[EdgeDeltaBatch] = []
        self._extra: Dict[int, List[int]] = {}
        self._extra_in: Dict[int, List[int]] = {}
        self._deleted: Dict[int, Set[int]] = {}
        self._deleted_in: Dict[int, Set[int]] = {}
        self._num_edges = base.num_edges
        self._base_in: Optional[CSRGraph] = None

    # ------------------------------------------------------------------
    # Graph view
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.base.num_vertices

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def dirty_edges(self) -> int:
        """Edges currently carried by the overlay (not yet compacted)."""
        extra = sum(len(v) for v in self._extra.values())
        dead = sum(len(v) for v in self._deleted.values())
        return extra + dead

    def has_edge(self, u: int, v: int) -> bool:
        if v in self._deleted.get(u, ()):
            return False
        if v in self._extra.get(u, ()):
            return True
        return self.base_multiplicity(u, v) > 0

    def base_multiplicity(self, u: int, v: int) -> int:
        """Copies of ``(u, v)`` in the current base row (0 when absent)."""
        return _row_count(self.base, u, v)

    def pair_copies(self, u: int, v: int) -> int:
        """Copies a delete/insert of pair ``(u, v)`` removes/restores.

        Its multiplicity in the original base, or one for a pair that
        base never held -- never read from the current base, which
        compaction rebuilds without deleted pairs.
        """
        return max(_row_count(self.origin, u, v), 1)

    def neighbors(self, v: int) -> np.ndarray:
        """Current sorted out-neighbors of ``v`` (base - deleted + extra)."""
        nbrs = np.asarray(self.base.neighbors(v), dtype=np.int64)
        dead = self._deleted.get(v)
        if dead:
            nbrs = nbrs[~np.isin(nbrs, np.fromiter(dead, dtype=np.int64))]
        extra = self._extra.get(v)
        if extra:
            nbrs = np.sort(
                np.concatenate([nbrs, np.asarray(extra, dtype=np.int64)])
            )
        return nbrs

    def in_neighbors(self, v: int) -> np.ndarray:
        """Current sorted in-neighbors of ``v`` (lazy base transpose)."""
        if self._base_in is None:
            self._base_in = self.base.transpose()
        nbrs = np.asarray(self._base_in.neighbors(v), dtype=np.int64)
        dead = self._deleted_in.get(v)
        if dead:
            nbrs = nbrs[~np.isin(nbrs, np.fromiter(dead, dtype=np.int64))]
        extra = self._extra_in.get(v)
        if extra:
            nbrs = np.sort(
                np.concatenate([nbrs, np.asarray(extra, dtype=np.int64)])
            )
        return nbrs

    def undirected_neighbors(self, v: int) -> np.ndarray:
        """Union of out- and in-neighbors (the symmetrized view)."""
        return np.unique(
            np.concatenate([self.neighbors(v), self.in_neighbors(v)])
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def apply(self, batch: EdgeDeltaBatch) -> str:
        """Apply one validated batch; returns the new version digest.

        Validation is all-or-nothing: every insert and delete is checked
        against the *current* edge set before any mutation happens, so a
        rejected batch leaves the overlay untouched.
        """
        top = batch.max_vertex()
        if top >= self.num_vertices:
            raise StreamError(
                f"delta endpoint {top} out of range "
                f"(graph has {self.num_vertices} vertices)"
            )
        for u, v in batch.inserts:
            if self.has_edge(int(u), int(v)):
                raise StreamError(
                    f"insert ({u}, {v}): edge already present"
                )
        for u, v in batch.deletes:
            if not self.has_edge(int(u), int(v)):
                raise StreamError(f"delete ({u}, {v}): no such edge")

        for u, v in batch.inserts:
            u, v = int(u), int(v)
            dead = self._deleted.get(u)
            if dead is not None and v in dead:
                # Re-inserting a base pair: undelete (restoring every
                # base copy) instead of stacking extra copies.
                dead.discard(v)
                self._deleted_in[v].discard(u)
                self._num_edges += self.base_multiplicity(u, v)
            else:
                copies = self.pair_copies(u, v)
                self._extra.setdefault(u, []).extend([v] * copies)
                self._extra_in.setdefault(v, []).extend([u] * copies)
                self._num_edges += copies
        for u, v in batch.deletes:
            u, v = int(u), int(v)
            extra = self._extra.get(u)
            if extra is not None and v in extra:
                self._num_edges -= extra.count(v)
                self._extra[u] = [w for w in extra if w != v]
                self._extra_in[v] = [w for w in self._extra_in[v] if w != u]
            else:
                self._deleted.setdefault(u, set()).add(v)
                self._deleted_in.setdefault(v, set()).add(u)
                self._num_edges -= self.base_multiplicity(u, v)
        self.batches.append(batch)
        self.delta_seq += 1
        self.version_digest = chain_digest(self.version_digest, batch)
        return self.version_digest

    # ------------------------------------------------------------------
    # Materialization / compaction
    # ------------------------------------------------------------------

    def _overlay_pairs(
        self, table: Dict[int, object]
    ) -> Tuple[np.ndarray, np.ndarray]:
        src = [u for u, vs in table.items() for _ in vs]
        dst = [v for vs in table.values() for v in vs]
        return (
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
        )

    def materialize(self) -> CSRGraph:
        """Merge base and deltas into a fresh in-memory CSR graph."""
        src = np.asarray(self.base.edge_sources(), dtype=np.int64)
        dst = np.asarray(self.base.col_idx, dtype=np.int64)
        if self._deleted:
            du, dv = self._overlay_pairs(self._deleted)
            keep = ~np.isin(
                edge_keys(src, dst, self.num_vertices),
                edge_keys(du, dv, self.num_vertices),
            )
            src, dst = src[keep], dst[keep]
        if self._extra:
            eu, ev = self._overlay_pairs(self._extra)
            src = np.concatenate([src, eu])
            dst = np.concatenate([dst, ev])
        return CSRGraph.from_edges(src, dst, self.num_vertices)

    def compact(self, store) -> Tuple[str, CSRGraph]:
        """Merge deltas into a CSR, publish it, re-base onto the artifact.

        The artifact is published to the
        :class:`~repro.graph.store.GraphStore` under the current
        version digest, then mapped back so the new base is
        memmap-backed like any other artifact; :attr:`origin` stays
        the original base.  Returns ``(digest,
        graph)``; on a publish failure (full disk) the in-memory merge
        becomes the base and the digest is still returned -- the next
        compaction retries the publish.
        """
        merged = self.materialize()
        digest = self.version_digest
        graph: Optional[CSRGraph]
        try:
            store.put(digest, merged)
            graph = store.load(digest)
        except OSError:
            graph = None
        if graph is None:
            graph = merged
        self.base = graph
        self.base_digest = digest
        self._extra.clear()
        self._extra_in.clear()
        self._deleted.clear()
        self._deleted_in.clear()
        self._base_in = None
        self._num_edges = graph.num_edges
        return digest, graph

    def __repr__(self) -> str:
        return (
            f"DeltaOverlayGraph(V={self.num_vertices:,} "
            f"E={self.num_edges:,} seq={self.delta_seq} "
            f"dirty={self.dirty_edges})"
        )
