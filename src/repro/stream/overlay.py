"""One immutable CSR per version of a streaming session's graph.

:class:`DeltaOverlayGraph` keeps the head version of a session as one
:class:`~repro.graph.csr.CSRGraph`, the layout Algorithm 1 walks and
every oracle reads.  Applying an
:class:`~repro.stream.delta.EdgeDeltaBatch` is strict: inserting an
edge that is currently present, or deleting one that is not, raises
:class:`~repro.errors.StreamError` and leaves the head untouched.  A
valid batch is spliced into the head's rows without a sort, giving a
new head; the graph the session opened on (typically a read-only
``np.memmap`` store artifact) is never written.

Every applied batch advances a rolling **version digest**::

    v_0     = base artifact digest
    v_{n+1} = sha256(v_n + ":" + batch_n.digest())

which the service layer embeds into run-spec cache keys, so results
computed at one version can never alias another.  A restart replays
the journaled batches onto the original base and reaches the same
head, byte for byte, at the same digest.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import StreamError
from repro.graph.csr import CSRGraph
from repro.stream.delta import EdgeDeltaBatch

__all__ = ["DeltaOverlayGraph", "chain_digest"]

#: What a delete puts in place of a pair's copies.
_NO_COPIES = np.empty(0, dtype=np.int64)


def _pair_span(graph: CSRGraph, u: int, v: int) -> Tuple[int, int]:
    """``[lo, hi)`` of pair ``(u, v)``'s copies in ``graph.col_idx``.

    Rows are sorted, so the copies are adjacent; an absent pair gets an
    empty span at the position it would take in ``u``'s row.
    """
    row = graph.neighbors(u)
    start = int(graph.row_ptr[u])
    return (
        start + int(np.searchsorted(row, v, side="left")),
        start + int(np.searchsorted(row, v, side="right")),
    )


def chain_digest(version: str, batch: EdgeDeltaBatch) -> str:
    """The next version digest after applying ``batch`` at ``version``."""
    return hashlib.sha256(
        f"{version}:{batch.digest()}".encode()
    ).hexdigest()


class DeltaOverlayGraph:
    """A session's graph: its original base and the CSR of its head.

    The base graph must be unweighted: the streaming workloads (BFS,
    CC, PageRank) are topology-only, and weighted delta semantics
    (which weight wins on re-insert?) have no consumer yet.

    Base graphs may be multigraphs (the R-MAT generator emits duplicate
    edges).  Deltas operate on *pairs*, and a present pair always holds
    :meth:`pair_copies` copies -- its multiplicity in the original base,
    or one if it was never there: deleting ``(u, v)`` removes every
    copy and re-inserting it brings that many back.  PageRank is
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
        #: The graph the session was opened on, which
        #: :meth:`pair_copies` reads at every version.
        self.origin = base
        #: The head version, the sorted CSR of its edge multiset,
        #: which :meth:`apply` replaces without a sort.
        self.graph = base
        self.base_digest = base_digest
        self.version_digest = base_digest
        self.delta_seq = 0
        #: Applied batches, oldest first; incremental workload states
        #: replay ``batches[state.seq:]`` to catch up to the head.
        self.batches: List[EdgeDeltaBatch] = []

    # ------------------------------------------------------------------
    # Graph view
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def has_edge(self, u: int, v: int) -> bool:
        lo, hi = _pair_span(self.graph, u, v)
        return hi > lo

    def pair_copies(self, u: int, v: int) -> int:
        """Copies a delete/insert of pair ``(u, v)`` removes/restores:
        its multiplicity in the original base, or one for a pair that
        base never held."""
        lo, hi = _pair_span(self.origin, u, v)
        return max(hi - lo, 1)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted out-neighbors of ``v`` at the head (its CSR row)."""
        return self.graph.neighbors(v)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def apply(self, batch: EdgeDeltaBatch) -> str:
        """Apply one validated batch; returns the new version digest.

        Validation is all-or-nothing: every insert and delete is checked
        against the head before the new head is built, so a rejected
        batch leaves the overlay untouched.
        """
        top = batch.max_vertex()
        if top >= self.num_vertices:
            raise StreamError(
                f"delta endpoint {top} out of range "
                f"(graph has {self.num_vertices} vertices)"
            )
        # (lo, hi, row, values): col_idx[lo:hi] of the head becomes values.
        edits = []
        for u, v in batch.inserts:
            u, v = int(u), int(v)
            lo, hi = _pair_span(self.graph, u, v)
            if hi > lo:
                raise StreamError(f"insert ({u}, {v}): edge already present")
            copies = np.full(self.pair_copies(u, v), v, dtype=np.int64)
            edits.append((lo, hi, u, copies))
        for u, v in batch.deletes:
            u, v = int(u), int(v)
            lo, hi = _pair_span(self.graph, u, v)
            if hi == lo:
                raise StreamError(f"delete ({u}, {v}): no such edge")
            edits.append((lo, hi, u, _NO_COPIES))
        self.graph = _splice(self.graph, edits)
        self.batches.append(batch)
        self.delta_seq += 1
        self.version_digest = chain_digest(self.version_digest, batch)
        return self.version_digest

    def materialize(self) -> CSRGraph:
        """The head version's CSR graph."""
        return self.graph

    def __repr__(self) -> str:
        return (
            f"DeltaOverlayGraph(V={self.num_vertices:,} "
            f"E={self.num_edges:,} seq={self.delta_seq})"
        )


def _splice(graph: CSRGraph, edits) -> CSRGraph:
    """``graph`` with each ``(lo, hi, row, values)`` edit applied.

    Spans never overlap, an insert's span is empty, and sorting on
    ``(lo, hi)`` is stable, so an insert lands before a delete that
    starts where it does and the copies of pairs that land at one
    position keep the batch's sorted order: every row stays sorted.
    """
    col_idx = graph.col_idx
    pieces = []
    shift = np.zeros(graph.num_vertices + 1, dtype=np.int64)
    at = 0
    for lo, hi, row, values in sorted(edits, key=lambda e: (e[0], e[1])):
        pieces.append(col_idx[at:lo])
        pieces.append(values)
        shift[row + 1] += values.shape[0] - (hi - lo)
        at = hi
    pieces.append(col_idx[at:])
    # The batch was checked against the head, whose arrays were
    # validated when first built.
    return CSRGraph(
        graph.row_ptr + np.cumsum(shift),
        np.concatenate(pieces),
        validate=False,
    )
