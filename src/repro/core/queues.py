"""Chunked numpy FIFOs for messages and pending propagation work.

Every queue here follows the same pattern: producers append whole numpy
arrays, consumers pop bounded batches.  Chunks avoid per-element Python
overhead entirely; the only Python-level loop is over chunks, and a pop
touches at most a handful.

:class:`MessageQueue` and :class:`PendingWork` are one PE's inbox and
active buffer; the scalar engine keeps one of each per PE, and they are
the references the pooled queues are tested against.  :class:`PooledQueue`
holds every PE's FIFO in one structure -- one PE-major batch per push,
one pop drains all PEs -- and the vectorized engine runs its inboxes and
Table I's spill buffers on it.  Its active buffers are the subclass
:class:`PooledPendingWork`, whose pop is bounded by edges and splits
high-degree entries.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.workloads.base import ragged_arange

if TYPE_CHECKING:
    from numpy.typing import DTypeLike


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


class PooledQueue:
    """Every PE's FIFO of rows in one structure with batched pops.

    Functionally equivalent to ``num_pes`` independent FIFOs -- for the
    ``(dest, values)`` columns of an inbox, :class:`MessageQueue` -- but
    a producer pushes one PE-major batch of columns and the consumer
    drains all PEs in one vectorized pop.  Pops return rows PE-major,
    FIFO within each PE: exactly the stream a per-PE loop produces, so
    order-sensitive reduce semantics are unchanged.
    """

    def __init__(self, num_pes: int, dtypes: Sequence[DTypeLike]) -> None:
        self.num_pes = num_pes
        #: One dtype per column; pushes are stored as these dtypes.
        self._dtypes = tuple(np.dtype(dtype) for dtype in dtypes)
        #: Each batch: [columns, offsets (P+1), consumed (P,), rows left].
        self._batches: Deque[List] = deque()
        self._sizes = np.zeros(num_pes, dtype=np.int64)
        #: Lifetime row flow counters (observability hooks), summed over
        #: all PEs -- matches the per-PE scalar queues' sums.
        self.pushed = 0
        self.popped = 0

    @property
    def sizes(self) -> np.ndarray:
        """Rows queued per PE (do not mutate)."""
        return self._sizes

    @property
    def total(self) -> int:
        """Rows queued over all PEs."""
        return self.pushed - self.popped

    def push_sorted(self, counts: np.ndarray, *columns: np.ndarray) -> np.ndarray:
        """Append one PE-major batch: ``counts[pe]`` rows for each PE.

        Returns the batch's row offsets (``num_pes + 1`` entries).
        """
        if len(columns) != len(self._dtypes):
            raise SimulationError(
                f"expected {len(self._dtypes)} columns, got {len(columns)}"
            )
        columns = [
            np.asarray(column, dtype=dtype)
            for column, dtype in zip(columns, self._dtypes)
        ]
        n = columns[0].shape[0]
        if {column.shape for column in columns} != {(n,)}:
            raise SimulationError("columns must be 1-D and of equal length")
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self.num_pes,) or np.minimum.reduce(counts) < 0:
            raise SimulationError("counts must give each PE's row count")
        offsets = np.zeros(self.num_pes + 1, dtype=np.int64)
        counts.cumsum(out=offsets[1:])
        if offsets[-1] != n:
            raise SimulationError("counts must sum to the batch length")
        if n:
            self._batches.append(
                [columns, offsets, np.zeros(self.num_pes, dtype=np.int64), n]
            )
            self._sizes += counts
            self.pushed += n
        return offsets

    def pop_all(self, budget: Union[int, np.ndarray]) -> Tuple[np.ndarray, ...]:
        """Pop up to ``budget`` rows *per PE* (one budget, or one per PE).

        Returns ``(counts, *columns)``: the rows popped per PE, then each
        column in PE-major order, FIFO within each PE.  A batch drained
        whole comes back as pushed, without a copy.
        """
        counts = np.minimum(self._sizes, np.maximum(budget, 0))
        total = int(np.add.reduce(counts))
        remaining, left = counts, total
        reads = []
        for _, offsets, consumed, _ in self._batches:
            if not left:
                break
            take = np.minimum(offsets[1:] - offsets[:-1] - consumed, remaining)
            taken = int(np.add.reduce(take))
            reads.append((take, taken, take, taken))
            remaining = remaining - take
            left -= taken
        columns = self._pop_rows(counts, total, reads)
        self._sizes -= counts
        self.popped += total
        return (counts, *columns)

    def _pop_rows(
        self, counts: np.ndarray, total: int, reads: List[tuple]
    ) -> List[np.ndarray]:
        """Read ``take[pe]`` rows (``taken`` in all) off the head of each
        PE's run in the ``b``-th batch, ``reads[b] = (take, taken,
        advance, advanced)``, then move the heads by ``advance`` (fewer
        when a row stays queued).  ``counts`` sums ``take`` over batches
        and ``total`` sums ``counts``.  Returns the columns PE-major,
        FIFO within each PE; batches with no rows left are dropped."""
        if total == 0:
            return [np.empty(0, dtype=dtype) for dtype in self._dtypes]
        parts = []
        for batch, (take, taken, advance, advanced) in zip(self._batches, reads):
            if taken == 0:
                continue
            columns, offsets, consumed, left = batch
            if advanced == taken == columns[0].shape[0]:
                parts.append((take, columns))  # drained whole
            else:
                rows = ragged_arange(offsets[:-1] + consumed, take, taken)
                parts.append((take, [column.take(rows) for column in columns]))
            consumed += advance
            batch[3] = left - advanced
        while self._batches and not self._batches[0][3]:
            self._batches.popleft()
        if len(parts) == 1:
            return parts[0][1]
        # Several batches: scatter each one's per-PE runs behind the
        # earlier batches' runs of the same PE.
        out = [np.empty(total, dtype=dtype) for dtype in self._dtypes]
        start = counts.cumsum() - counts
        for take, columns in parts:
            slots = ragged_arange(start, take, columns[0].shape[0])
            for column, part in zip(out, columns):
                column[slots] = part
            start += take
        return out


class PooledPendingWork(PooledQueue):
    """Every PE's active buffer: ``<vertex, alpha, start, end>`` rows.

    A :class:`PooledQueue` popped by edges rather than rows:
    ``pop_edges_all`` gives each PE its own edge budget, takes whole
    entries in FIFO order until the budget is hit and splits the next
    entry if a partial range still fits -- per PE exactly what
    :meth:`PendingWork.pop_edges` does.
    """

    def __init__(self, num_pes: int) -> None:
        super().__init__(num_pes, (np.int64, np.float64, np.int64, np.int64))

    def push_sorted(
        self,
        counts: np.ndarray,
        vertices: np.ndarray,
        values: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
    ) -> np.ndarray:
        """Append one PE-major batch: ``counts[pe]`` entries for each PE."""
        if starts.shape != ends.shape or np.minimum.reduce(
            ends - starts, initial=0
        ) < 0:
            raise SimulationError("edge ranges must have end >= start")
        # Private copy: a split advances an entry's start in place.
        starts = np.array(starts, dtype=np.int64)
        return super().push_sorted(counts, vertices, values, starts, ends)

    def pop_edges_all(self, budget: int) -> Tuple[np.ndarray, ...]:
        """Pop work totalling at most ``budget`` edges *per PE*.

        Returns ``(counts, vertices, values, starts, ends)``: the entries
        popped per PE, then the entries in PE-major order, FIFO within
        each PE.  A PE whose budget ends inside an entry gets that
        entry's partial range as its last row; the rest stays queued.
        """
        budget = max(budget, 0)
        remaining = np.full(self.num_pes, budget, dtype=np.int64)
        counts = np.zeros(self.num_pes, dtype=np.int64)
        cut = np.zeros(self.num_pes, dtype=np.int64)  # split rows' edges
        total = splits_total = 0
        reads = []
        splits = []
        for (_, _, starts, ends), offsets, consumed, _ in self._batches:
            if not remaining.any():
                break
            lo = offsets[:-1] + consumed
            hi = offsets[1:]
            live = (lo < hi) & (remaining > 0)
            # Edges queued before each row of the batch.
            before = np.zeros(starts.shape[0] + 1, dtype=np.int64)
            (ends - starts).cumsum(out=before[1:])
            base = before[lo]
            pos = before.searchsorted(base + remaining, side="right") - 1
            pos = np.where(live, np.minimum(pos, hi), lo)
            taken_full = before[pos] - base
            # Entry ``pos`` is split when part of its range still fits:
            # it is read as the PE's last row but stays queued.
            split = live & (remaining > taken_full) & (pos < hi)
            part = (remaining - taken_full) * split
            take = pos - lo + split
            taken = int(np.add.reduce(take))
            nsplit = int(np.count_nonzero(split))
            if nsplit:
                splits.append((starts, pos[split], part[split]))
            reads.append((take, taken, take - split, taken - nsplit))
            counts += take
            cut += part
            remaining -= taken_full + part
            total += taken
            splits_total += nsplit
        vertices, values, starts, ends = self._pop_rows(counts, total, reads)
        if splits:
            split_pes = cut.nonzero()[0]
            last = counts.cumsum()[split_pes] - 1
            ends[last] = starts[last] + cut[split_pes]
            for batch_starts, rows, part in splits:
                batch_starts[rows] += part
        self._sizes -= counts - (cut > 0)
        self.popped += total - splits_total
        return counts, vertices, values, starts, ends
