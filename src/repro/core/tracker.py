"""The Vertex Management Unit's tracker module (Section III-D, Listing 1).

The tracker records, per PE, **which memory blocks hold active vertices**
using one saturating counter per superblock of ``superblock_dim`` blocks.
This is the paper's key capacity trick: Equation 1 bounds the on-chip
cost at ``(log2(superblock_dim) + 1)`` bits per superblock regardless of
graph size (16 MiB for all of WDC12, 27x smaller than a bit vector).

The price is precision: to retrieve active vertices the VMU must scan a
superblock's blocks, reading inactive blocks along the way (*wasteful
reads*, Fig 10).  :meth:`TrackerModule.select_superblocks` and
:meth:`collect` implement the scan: a rotating cursor picks non-empty
superblocks; the scan reads ``prefetch_chunk_blocks``-sized chunks until
the superblock's counter is exhausted, exactly like Listing 1's
``prefetch``.

All state is vectorized across PEs: ``counters`` is ``(P, S)`` and the
per-block "counted" bitmap ``block_counted`` is ``(P, B)``, a view of a
bitmap padded to ``S * superblock_dim`` blocks per PE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.core.layout import VertexMemoryLayout
from repro.workloads.base import unique_ids


@dataclass
class CollectOutcome:
    """Result of scanning one PE's selected superblocks."""

    active_blocks: np.ndarray  # local block ids that held active vertices
    blocks_read: int  # total blocks transferred from DRAM during the scan
    wasteful_blocks: int  # blocks read that held no active vertex


@dataclass
class BatchCollectOutcome:
    """Result of scanning selected superblocks across many PEs at once."""

    active_blocks: np.ndarray  # flat local block ids, grouped by PE row
    active_rows: np.ndarray  # index into the ``pes`` argument, per block
    blocks_read: np.ndarray  # (len(pes),) blocks transferred per PE
    wasteful_blocks: np.ndarray  # (len(pes),) inactive blocks read per PE


class TrackerModule:
    """Superblock-granularity active-block tracking for every PE."""

    def __init__(self, layout: VertexMemoryLayout) -> None:
        self.layout = layout
        num_pes = layout.config.num_pes
        dim = layout.superblock_dim
        self.counters = np.zeros(
            (num_pes, layout.superblocks_per_pe), dtype=np.int64
        )
        # The counted bitmap, padded to whole superblocks so that each
        # superblock is one row of ``(P, S, dim)``; the padding blocks
        # past ``blocks_per_pe`` are never counted.
        padded = layout.superblocks_per_pe * dim
        self._bitmap = np.zeros((num_pes, padded), dtype=bool)
        self.block_counted = self._bitmap[:, : layout.blocks_per_pe]
        # Flat views: per block, per superblock row, per counter.
        self._flat_bits = self._bitmap.reshape(-1)
        self._superblock_bits = self._bitmap.reshape(-1, dim)
        self._flat_counters = self.counters.reshape(-1)
        #: Blocks counted across all PEs (the sum of ``counters``).
        self.tracked_blocks = 0
        #: Each vertex's block as an index into the flat padded bitmap;
        #: ``key // dim`` is its superblock's index into the flat counters.
        self._block_key = layout.placement.owner * padded + layout.block_of(
            np.arange(layout.placement.num_vertices)
        )
        self._cursor = np.zeros(num_pes, dtype=np.int64)
        self.superblock_dim = layout.superblock_dim
        self.chunk_blocks = layout.config.prefetch_chunk_blocks
        #: Lifetime prefetch counters (observability hooks): blocks that
        #: held active vertices (hits) vs inactive blocks read while
        #: scanning for them (misses -- the wasteful reads of Fig 10).
        self.prefetch_hits = 0
        self.prefetch_misses = 0

    # ------------------------------------------------------------------
    # Tracking (called from the MPU side)
    # ------------------------------------------------------------------

    def track(self, vertices: np.ndarray) -> int:
        """Mark the blocks of newly activated vertices; returns new blocks.

        Idempotent per block: a block already counted (active, not yet
        collected) is not double-counted -- this is the "overwrite in the
        vertex set" spilling method of Table I, which needs no extra
        coalescing work.
        """
        if vertices.shape[0] == 0:
            return 0
        keys = self._block_key.take(vertices)
        keys = unique_ids(
            keys.compress(~self._flat_bits.take(keys)), self._flat_bits.shape[0]
        )
        new = keys.shape[0]
        if new:
            self._flat_bits[keys] = True
            np.add.at(self._flat_counters, keys // self.superblock_dim, 1)
            self.tracked_blocks += new
        return new

    # ------------------------------------------------------------------
    # Retrieval (called from the VMU prefetch side)
    # ------------------------------------------------------------------

    def has_work(self, pe: int) -> bool:
        return bool(self.counters[pe].any())

    def any_work(self) -> bool:
        return self.tracked_blocks > 0

    def work_mask(self) -> np.ndarray:
        """Per-PE boolean mask of PEs with at least one tracked block."""
        return self.counters.any(axis=1)

    def select_superblocks(self, pe: int, max_count: int) -> np.ndarray:
        """Up to ``max_count`` non-empty superblocks in cursor rotation.

        Implements Listing 1's ``next_superblock`` scan order: a linear
        sweep that resumes where the previous quantum stopped.
        """
        nonzero = np.flatnonzero(self.counters[pe])
        if nonzero.shape[0] == 0:
            return nonzero
        pivot = np.searchsorted(nonzero, self._cursor[pe])
        rotated = np.concatenate([nonzero[pivot:], nonzero[:pivot]])
        chosen = rotated[:max_count]
        self._cursor[pe] = (int(chosen[-1]) + 1) % self.counters.shape[1]
        return chosen

    def collect(self, pe: int, superblocks: np.ndarray) -> CollectOutcome:
        """Scan ``superblocks`` on one PE, consuming their counters.

        For each superblock the scan reads chunk-aligned blocks from the
        front until every counted block has been covered (the hardware
        stops fetching chunks once the counter reaches zero).  Counted
        blocks become the prefetched active blocks; the rest of the
        blocks read are wasteful.
        """
        if superblocks.shape[0] == 0:
            return CollectOutcome(np.empty(0, dtype=np.int64), 0, 0)
        dim = self.superblock_dim
        base = superblocks[:, None] * dim + np.arange(dim, dtype=np.int64)[None, :]
        in_range = base < self.layout.blocks_per_pe
        counted = np.zeros_like(in_range)
        counted[in_range] = self.block_counted[pe, base[in_range]]
        per_sb = counted.sum(axis=1)
        if (per_sb != self.counters[pe, superblocks]).any():
            raise SimulationError("tracker counters diverged from bitmap")
        # Blocks read: chunk-aligned up to the last counted block.
        has_any = per_sb > 0
        last_counted = np.where(
            has_any, dim - 1 - np.argmax(counted[:, ::-1], axis=1), -1
        )
        chunks_needed = np.where(
            has_any, (last_counted // self.chunk_blocks) + 1, 0
        )
        limit = np.minimum(chunks_needed * self.chunk_blocks, in_range.sum(axis=1))
        blocks_read = int(limit.sum())
        active_blocks = base[counted]
        hits = int(per_sb.sum())
        wasteful = blocks_read - hits
        self.prefetch_hits += hits
        self.prefetch_misses += wasteful
        self.tracked_blocks -= hits
        # Consume: collected blocks leave the tracker.
        self.block_counted[pe, active_blocks] = False
        self.counters[pe, superblocks] = 0
        return CollectOutcome(
            active_blocks=active_blocks,
            blocks_read=blocks_read,
            wasteful_blocks=wasteful,
        )

    # ------------------------------------------------------------------
    # Batched retrieval across PEs (the vectorized engine's VMU path)
    # ------------------------------------------------------------------

    def select_superblocks_many(
        self, pes: np.ndarray, max_counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run :meth:`select_superblocks` for many PEs in one pass.

        ``pes`` must be ascending and ``max_counts`` aligned with it.
        Returns ``(rows, superblocks)`` flat arrays grouped by row (index
        into ``pes``) with each row's superblocks in its cursor-rotation
        order -- exactly the per-PE scalar selection, including the
        cursor updates.
        """
        empty = np.empty(0, dtype=np.int64)
        if pes.shape[0] == 0:
            return empty, empty.copy()
        # A flat nonzero: numpy's 2-D nonzero is several times slower.
        num_superblocks = self.counters.shape[1]
        flat = self.counters.take(pes, axis=0).ravel().nonzero()[0]
        if flat.shape[0] == 0:
            return empty, empty.copy()
        r, sb = np.divmod(flat, num_superblocks)
        n_rows = pes.shape[0]
        counts = np.bincount(r, minlength=n_rows)
        pos = np.arange(r.shape[0]) - (counts.cumsum() - counts)[r]
        below_cursor = sb < self._cursor[pes[r]]
        pivot = np.bincount(r[below_cursor], minlength=n_rows)
        rank = (pos - pivot[r]) % counts[r]
        chosen = rank < max_counts[r]
        r_c, sb_c, rank_c = r[chosen], sb[chosen], rank[chosen]
        order = np.lexsort((rank_c, r_c))
        r_c, sb_c, rank_c = r_c[order], sb_c[order], rank_c[order]
        n_chosen = np.minimum(counts, max_counts)
        last = rank_c == n_chosen[r_c] - 1
        self._cursor[pes[r_c[last]]] = (sb_c[last] + 1) % num_superblocks
        return r_c, sb_c

    def collect_many(
        self, pes: np.ndarray, rows: np.ndarray, superblocks: np.ndarray
    ) -> BatchCollectOutcome:
        """Run :meth:`collect` for many PEs in one pass.

        ``rows`` maps each superblock to its index in ``pes`` (as
        returned by :meth:`select_superblocks_many`).  Active blocks come
        back grouped by row with each row's blocks in scalar-collect
        order: selection order across superblocks, ascending within one.
        """
        n_rows = pes.shape[0]
        if superblocks.shape[0] == 0:
            empty = np.empty(0, dtype=np.int64)
            zeros = np.zeros(n_rows, dtype=np.int64)
            return BatchCollectOutcome(empty, empty.copy(), zeros, zeros.copy())
        dim = self.superblock_dim
        # One row of bits per (PE, superblock), in flat counter order;
        # the counted ones as flat positions, ascending per superblock.
        flat_sb = pes.take(rows) * self.counters.shape[1] + superblocks
        counted = self._superblock_bits.take(flat_sb, axis=0).ravel().nonzero()[0]
        sb_index, within = np.divmod(counted, dim)
        per_sb = np.bincount(sb_index, minlength=superblocks.shape[0])
        if (per_sb != self._flat_counters.take(flat_sb)).any():
            raise SimulationError("tracker counters diverged from bitmap")
        # Chunks read: chunk-aligned up to the last counted block.
        last_counted = np.zeros(superblocks.shape[0], dtype=np.int64)
        np.maximum.at(last_counted, sb_index, within)
        chunks_needed = np.where(per_sb > 0, last_counted // self.chunk_blocks + 1, 0)
        in_range = np.minimum(dim, self.layout.blocks_per_pe - superblocks * dim)
        limit = np.minimum(chunks_needed * self.chunk_blocks, in_range)
        blocks_read = np.zeros(n_rows, dtype=np.int64)
        np.add.at(blocks_read, rows, limit)
        active_per_row = np.zeros(n_rows, dtype=np.int64)
        np.add.at(active_per_row, rows, per_sb)
        hits = counted.shape[0]
        self.prefetch_hits += hits
        self.prefetch_misses += int(np.add.reduce(limit)) - hits
        self.tracked_blocks -= hits
        # Consume: every counted block of a selected superblock leaves
        # the tracker, so the superblock's whole row clears.
        self._superblock_bits[flat_sb] = False
        self._flat_counters[flat_sb] = 0
        return BatchCollectOutcome(
            active_blocks=superblocks.take(sb_index) * dim + within,
            active_rows=rows.take(sb_index),
            blocks_read=blocks_read,
            wasteful_blocks=blocks_read - active_per_row,
        )

    # ------------------------------------------------------------------
    # Invariants (used by property tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Counters must equal counted blocks per superblock, everywhere."""
        if self._bitmap[:, self.layout.blocks_per_pe :].any():
            raise SimulationError("tracker counted a padding block")
        num_pes, num_superblocks = self.counters.shape
        per_sb = self._bitmap.reshape(num_pes, num_superblocks, -1).sum(axis=2)
        if (per_sb != self.counters).any():
            raise SimulationError("tracker invariant violated")
        if self.tracked_blocks != int(self.counters.sum()):
            raise SimulationError("tracker block count diverged from counters")
