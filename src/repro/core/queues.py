"""Chunked numpy FIFOs for messages and pending propagation work.

Both queues follow the same pattern: producers append whole numpy arrays
(one append per quantum per producer), consumers pop bounded batches.
Chunks avoid per-element Python overhead entirely; the only Python-level
loop is over chunks, and a pop touches at most a handful.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

import numpy as np

from repro.errors import SimulationError


class MessageQueue:
    """FIFO of ``<destination, value>`` message batches."""

    def __init__(self) -> None:
        self._chunks: Deque[Tuple[np.ndarray, np.ndarray]] = deque()
        self._head = 0  # offset into the first chunk
        self._size = 0
        #: Lifetime message flow counters (observability hooks).
        self.pushed = 0
        self.popped = 0

    def __len__(self) -> int:
        return self._size

    def push(self, dest: np.ndarray, values: np.ndarray) -> None:
        if dest.shape != values.shape:
            raise SimulationError("dest and values must have equal length")
        if dest.shape[0] == 0:
            return
        self._chunks.append((dest, values))
        self._size += dest.shape[0]
        self.pushed += dest.shape[0]

    def pop(self, budget: int) -> Tuple[np.ndarray, np.ndarray]:
        """Pop up to ``budget`` messages, preserving FIFO order."""
        if budget <= 0 or self._size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0)
        dest_parts: List[np.ndarray] = []
        val_parts: List[np.ndarray] = []
        taken = 0
        while self._chunks and taken < budget:
            dest, values = self._chunks[0]
            available = dest.shape[0] - self._head
            take = min(available, budget - taken)
            dest_parts.append(dest[self._head : self._head + take])
            val_parts.append(values[self._head : self._head + take])
            taken += take
            if take == available:
                self._chunks.popleft()
                self._head = 0
            else:
                self._head += take
        self._size -= taken
        self.popped += taken
        if len(dest_parts) == 1:
            return dest_parts[0], val_parts[0]
        return np.concatenate(dest_parts), np.concatenate(val_parts)


class PendingWork:
    """The active buffer's work stream: ``<alpha, start, end>`` entries.

    Each entry is an active vertex with its value snapshot and its
    (possibly partially consumed) edge range.  ``pop_edges`` returns
    entries covering at most ``budget`` edges, splitting the last entry
    if needed -- a high-degree vertex's propagation spans quanta, just as
    it occupies the real MGU for many cycles.
    """

    def __init__(self) -> None:
        self._chunks: Deque[List[np.ndarray]] = deque()
        self._entries = 0
        self._edges = 0

    @property
    def entries(self) -> int:
        return self._entries

    @property
    def edges(self) -> int:
        return self._edges

    def __len__(self) -> int:
        return self._entries

    def push(
        self,
        vertices: np.ndarray,
        values: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
    ) -> None:
        n = vertices.shape[0]
        if not (values.shape[0] == starts.shape[0] == ends.shape[0] == n):
            raise SimulationError("pending-work columns must align")
        if n == 0:
            return
        if (ends < starts).any():
            raise SimulationError("edge ranges must have end >= start")
        self._chunks.append(
            [
                np.asarray(vertices, dtype=np.int64),
                np.asarray(values, dtype=np.float64),
                np.asarray(starts, dtype=np.int64),
                np.asarray(ends, dtype=np.int64),
            ]
        )
        self._entries += n
        self._edges += int((ends - starts).sum())

    def pop_edges(
        self, budget: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pop work totalling at most ``budget`` edges (FIFO, splitting)."""
        empty = np.empty(0, dtype=np.int64)
        if budget <= 0 or self._entries == 0:
            # Entries (not edges) gate the pop: degree-0 entries carry no
            # edges but must still drain or the buffer never empties.
            return empty, np.empty(0), empty.copy(), empty.copy()
        out_v: List[np.ndarray] = []
        out_a: List[np.ndarray] = []
        out_s: List[np.ndarray] = []
        out_e: List[np.ndarray] = []
        remaining = budget
        while self._chunks and remaining > 0:
            vertices, values, starts, ends = self._chunks[0]
            sizes = ends - starts
            cum = np.cumsum(sizes)
            if cum[-1] <= remaining:
                # Whole chunk fits.
                self._chunks.popleft()
                out_v.append(vertices)
                out_a.append(values)
                out_s.append(starts)
                out_e.append(ends)
                taken = int(cum[-1])
                self._entries -= vertices.shape[0]
            else:
                # Take full entries up to the budget, then split one.
                k = int(np.searchsorted(cum, remaining, side="right"))
                out_v.append(vertices[:k])
                out_a.append(values[:k])
                out_s.append(starts[:k])
                out_e.append(ends[:k])
                taken_full = int(cum[k - 1]) if k else 0
                leftover = remaining - taken_full
                taken = taken_full
                if leftover > 0:
                    # Partially consume entry k.
                    out_v.append(vertices[k : k + 1])
                    out_a.append(values[k : k + 1])
                    out_s.append(starts[k : k + 1])
                    out_e.append(starts[k : k + 1] + leftover)
                    starts = starts.copy()
                    starts[k] += leftover
                    taken += leftover
                # Keep the tail (entry k onward) as the new head chunk.
                self._chunks[0] = [vertices[k:], values[k:], starts[k:], ends[k:]]
                self._entries -= k
            self._edges -= taken
            remaining -= taken
            if remaining <= 0:
                break
        if len(out_v) == 1:
            return out_v[0], out_a[0], out_s[0], out_e[0]
        return (
            np.concatenate(out_v),
            np.concatenate(out_a),
            np.concatenate(out_s),
            np.concatenate(out_e),
        )


def _ragged_arange(starts: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """Concatenated ``[starts[i], starts[i] + counts[i])`` index ranges."""
    cum_excl = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.arange(total, dtype=np.int64) + np.repeat(starts - cum_excl, counts)


class PooledMessageQueue:
    """Every PE's message FIFO in one structure with batched drains.

    Functionally equivalent to ``num_pes`` independent
    :class:`MessageQueue` instances, but producers push one PE-sorted
    batch per quantum and the consumer drains all PEs in a single
    vectorized pop.  ``pop_all`` returns messages in PE-major order with
    FIFO order preserved within each PE -- exactly the stream the scalar
    engine's per-PE loop produced, so reduce semantics (including
    order-sensitive sum combines) are unchanged.
    """

    def __init__(self, num_pes: int) -> None:
        self.num_pes = num_pes
        #: Each batch: [dest, values, offsets (P+1), consumed (P,)].
        self._batches: Deque[List[np.ndarray]] = deque()
        self._sizes = np.zeros(num_pes, dtype=np.int64)
        #: Lifetime message flow counters (observability hooks), summed
        #: over all PEs -- matches the per-PE scalar queues' sums.
        self.pushed = 0
        self.popped = 0

    @property
    def sizes(self) -> np.ndarray:
        """Messages queued per PE (do not mutate)."""
        return self._sizes

    @property
    def total(self) -> int:
        return int(self._sizes.sum())

    def any(self) -> bool:
        return bool(self._sizes.any())

    def push_sorted(
        self, counts: np.ndarray, dest: np.ndarray, values: np.ndarray
    ) -> None:
        """Append one PE-major batch: ``counts[pe]`` rows for each PE."""
        n = dest.shape[0]
        if values.shape[0] != n:
            raise SimulationError("dest and values must have equal length")
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self.num_pes,) or (counts < 0).any():
            raise SimulationError("counts must give each PE's row count")
        offsets = np.zeros(self.num_pes + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        if offsets[-1] != n:
            raise SimulationError("counts must sum to the batch length")
        if n == 0:
            return
        self._batches.append(
            [dest, values, offsets, np.zeros(self.num_pes, dtype=np.int64)]
        )
        self._sizes += counts
        self.pushed += n

    def pop_all(
        self, budget: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pop up to ``budget`` messages *per PE*.

        Returns ``(counts, dest, values)``: the messages popped per PE,
        then the messages in PE-major order, FIFO within each PE.  A
        batch drained whole comes back as pushed, without a copy.
        """
        counts = np.minimum(self._sizes, max(budget, 0))
        total = int(counts.sum())
        if total == 0:
            return counts, np.empty(0, dtype=np.int64), np.empty(0)
        parts: List[Tuple[np.ndarray, ...]] = []
        remaining = counts.copy()
        for batch in self._batches:
            if not remaining.any():
                break
            dest, values, offsets, consumed = batch
            take = np.minimum((offsets[1:] - offsets[:-1]) - consumed, remaining)
            taken = int(take.sum())
            if taken == 0:
                continue
            if taken == dest.shape[0]:
                parts.append((take, dest, values))
            else:
                rows = _ragged_arange(offsets[:-1] + consumed, take, taken)
                parts.append((take, dest[rows], values[rows]))
            consumed += take
            remaining -= take
        while self._batches:
            _, _, offsets, consumed = self._batches[0]
            if int(consumed.sum()) != int(offsets[-1]):
                break
            self._batches.popleft()
        self._sizes -= counts
        self.popped += total
        if len(parts) == 1:
            _, dest, values = parts[0]
            return counts, dest, values
        # Several batches: scatter each one's per-PE runs behind the
        # earlier batches' runs of the same PE.
        dest = np.empty(total, dtype=np.result_type(*(p[1] for p in parts)))
        values = np.empty(total, dtype=np.result_type(*(p[2] for p in parts)))
        start = np.zeros(self.num_pes, dtype=np.int64)
        np.cumsum(counts[:-1], out=start[1:])
        for take, part_dest, part_values in parts:
            slots = _ragged_arange(start, take, part_dest.shape[0])
            dest[slots] = part_dest
            values[slots] = part_values
            start += take
        return counts, dest, values


class PooledPendingWork:
    """Every PE's active buffer in one structure with batched edge pops.

    Mirrors :class:`PendingWork` semantics per PE -- ``pop_edges_all``
    gives each PE its own edge budget, takes whole entries in FIFO order
    until the budget is hit and splits the next entry if a partial range
    still fits, exactly as the per-PE ``pop_edges`` loop did.
    """

    def __init__(self, num_pes: int) -> None:
        self.num_pes = num_pes
        #: Each batch: [vertices, values, starts, ends, offsets, consumed].
        self._batches: Deque[List[np.ndarray]] = deque()
        self._entries = np.zeros(num_pes, dtype=np.int64)
        self._edges = np.zeros(num_pes, dtype=np.int64)

    @property
    def entries_per_pe(self) -> np.ndarray:
        return self._entries

    @property
    def total_entries(self) -> int:
        return int(self._entries.sum())

    @property
    def total_edges(self) -> int:
        return int(self._edges.sum())

    def push_sorted(
        self,
        pes: np.ndarray,
        vertices: np.ndarray,
        values: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
    ) -> None:
        """Append one batch whose rows are sorted by ``pes`` (ascending)."""
        n = pes.shape[0]
        if not (
            vertices.shape[0] == values.shape[0]
            == starts.shape[0] == ends.shape[0] == n
        ):
            raise SimulationError("pending-work columns must align")
        if n == 0:
            return
        if (ends < starts).any():
            raise SimulationError("edge ranges must have end >= start")
        counts = np.bincount(pes, minlength=self.num_pes)
        if counts.shape[0] != self.num_pes:
            raise SimulationError("pes contains out-of-range PE ids")
        offsets = np.zeros(self.num_pes + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        starts = np.array(starts, dtype=np.int64)  # private: splits mutate it
        ends = np.asarray(ends, dtype=np.int64)
        self._batches.append(
            [
                np.asarray(vertices, dtype=np.int64),
                np.asarray(values, dtype=np.float64),
                starts,
                ends,
                offsets,
                np.zeros(self.num_pes, dtype=np.int64),
            ]
        )
        self._entries += counts
        np.add.at(self._edges, pes, ends - starts)

    def pop_edges_all(
        self, budget: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pop work totalling at most ``budget`` edges *per PE*.

        Returns ``(pes, vertices, values, starts, ends)`` in PE-major
        order, FIFO within each PE, splitting a PE's last entry when a
        partial edge range still fits its budget.
        """
        empty = np.empty(0, dtype=np.int64)
        if budget <= 0 or not self._entries.any():
            return empty, empty.copy(), np.empty(0), empty.copy(), empty.copy()
        remaining = np.full(self.num_pes, budget, dtype=np.int64)
        parts: List[Tuple[np.ndarray, ...]] = []
        pe_ids = np.arange(self.num_pes, dtype=np.int64)
        popped_entries = np.zeros(self.num_pes, dtype=np.int64)
        popped_edges = np.zeros(self.num_pes, dtype=np.int64)
        for batch in self._batches:
            if not remaining.any():
                break
            vertices, values, starts, ends, offsets, consumed = batch
            lo = offsets[:-1] + consumed
            hi = offsets[1:]
            live = (lo < hi) & (remaining > 0)
            if not live.any():
                continue
            cs = np.cumsum(ends - starts)
            base = np.where(lo > 0, cs[lo - 1], 0)
            pos = np.searchsorted(cs, base + remaining, side="right")
            pos = np.where(live, np.minimum(pos, hi), lo)
            full_counts = pos - lo
            taken_full = np.where(pos > lo, cs[pos - 1] - base, 0)
            leftover = remaining - taken_full
            total_full = int(full_counts.sum())
            if total_full:
                idx = _ragged_arange(lo, full_counts, total_full)
                parts.append(
                    (
                        np.repeat(pe_ids, full_counts),
                        vertices[idx],
                        values[idx],
                        starts[idx],
                        ends[idx],
                    )
                )
            split = live & (leftover > 0) & (pos < hi)
            if split.any():
                split_pes = np.flatnonzero(split)
                rows = pos[split_pes]
                take = leftover[split_pes]
                parts.append(
                    (
                        split_pes.astype(np.int64),
                        vertices[rows],
                        values[rows],
                        starts[rows].copy(),
                        starts[rows] + take,
                    )
                )
                starts[rows] += take
            consumed += full_counts
            edge_taken = taken_full + np.where(split, leftover, 0)
            popped_entries += full_counts
            popped_edges += edge_taken
            remaining -= edge_taken
        while self._batches:
            _, _, _, _, offsets, consumed = self._batches[0]
            if int(consumed.sum()) != int(offsets[-1]):
                break
            self._batches.popleft()
        if not parts:
            return empty, empty.copy(), np.empty(0), empty.copy(), empty.copy()
        self._entries -= popped_entries
        self._edges -= popped_edges
        if len(parts) == 1:
            pes, vertices, values, starts, ends = parts[0]
        else:
            pes = np.concatenate([p[0] for p in parts])
            vertices = np.concatenate([p[1] for p in parts])
            values = np.concatenate([p[2] for p in parts])
            starts = np.concatenate([p[3] for p in parts])
            ends = np.concatenate([p[4] for p in parts])
            order = np.argsort(pes.astype(np.uint16), kind="stable")
            pes, vertices, values = pes[order], vertices[order], values[order]
            starts, ends = starts[order], ends[order]
        return pes, vertices, values, starts, ends
