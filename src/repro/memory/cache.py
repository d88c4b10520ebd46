"""Exact, vectorized direct-mapped write-back cache model.

Each PE in NOVA fronts its HBM2 vertex channel with a small direct-mapped
write-back cache (64 KiB by default, Section III-B).  The paper shows the
cache captures little locality on large graphs; what matters for the
timing model is an *exact* count of hits, misses, and dirty write-backs
so that HBM traffic is charged correctly.

:class:`CacheArray` models **all PEs' caches at once**: one batch of
accesses tagged with (pe, block) resolves in a handful of O(n) numpy
passes while reproducing in-order scalar cache semantics bit-for-bit:

- Accesses are grouped by global set index ``pe * num_sets + block %
  num_sets`` with numpy's stable argsort on 16-bit digits of that index,
  which is a radix sort: one pass while all caches together have at most
  2**16 sets, one more LSD pass per further 16 bits.  No comparison sort
  is involved, and stability keeps each set's run in program order.
- Within one set's run, an access hits iff the immediately preceding
  access in the run touched the same block; the run's head consults the
  persistent tag store.
- Each maximal run of identical blocks within a set is a *tenancy*.  A
  tenancy is dirty iff it inherited a dirty line (a hit at the run's
  head) or any access in it was a write.  A miss at a run's head writes
  back the resident line iff it is dirty; a miss inside the run writes
  back the tenancy before it iff that tenancy was dirty.
- With a scalar ``writes=True`` (the engines' call) every in-batch
  tenancy is dirty, so every inside miss writes back and every touched
  line ends dirty.  Otherwise one ``cumsum`` over tenancy starts numbers
  the tenancies, and ``logical_or.reduceat`` over the writes gives their
  dirty bits.
- Misses and write-backs are counted per set run and summed per cache
  from the run's set index, so the cache ids are never permuted.

:class:`DirectMappedCache` is the single-cache convenience wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError


@dataclass
class CacheBatchResult:
    """Aggregate outcome of one batch of accesses."""

    hits: int
    misses: int
    writebacks: int

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


@dataclass
class CacheArrayResult(CacheBatchResult):
    """Batch outcome with per-cache miss/write-back counts."""

    misses_per_cache: np.ndarray = None
    writebacks_per_cache: np.ndarray = None


def _run_counts(flags: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Count of true ``flags`` in each run; ``heads`` are the runs' starts."""
    return np.add.reduceat(flags.view(np.int8), heads, dtype=np.int64)


class CacheArray:
    """``num_caches`` direct-mapped write-back caches, resolved together.

    Addresses presented to :meth:`access` are (cache index, block number)
    pairs; block ``b`` maps to set ``b % num_sets`` of its cache.
    """

    _INVALID = np.int64(-1)

    def __init__(self, num_caches: int, capacity_bytes: int, line_bytes: int) -> None:
        if num_caches <= 0:
            raise ConfigError("num_caches must be positive")
        if capacity_bytes <= 0 or line_bytes <= 0:
            raise ConfigError("cache capacity and line size must be positive")
        if capacity_bytes % line_bytes != 0:
            raise ConfigError(
                f"capacity {capacity_bytes} is not a multiple of line size "
                f"{line_bytes}"
            )
        self.num_caches = num_caches
        self.capacity_bytes = capacity_bytes
        self.line_bytes = line_bytes
        self.num_sets = capacity_bytes // line_bytes
        total_sets = num_caches * self.num_sets
        #: Bit offsets of the radix digits that order a batch by set.
        self._digit_shifts = tuple(
            range(0, max(1, (total_sets - 1).bit_length()), 16)
        )
        self._set_dtype = np.min_scalar_type(total_sets - 1)
        self._tags = np.full(total_sets, self._INVALID, dtype=np.int64)
        self._dirty = np.zeros(total_sets, dtype=bool)
        self.lifetime_hits = 0
        self.lifetime_misses = 0
        self.lifetime_writebacks = 0

    def set_index(self, caches: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """Global set index ``cache * num_sets + block % num_sets``.

        Returned in the narrowest unsigned dtype that holds every set of
        the array, which is the key :meth:`access` radix-sorts on.
        """
        caches = np.asarray(caches, dtype=np.int64)
        blocks = np.asarray(blocks, dtype=np.int64)
        sets = caches * self.num_sets + blocks % self.num_sets
        return sets.astype(self._set_dtype)

    def access(
        self,
        caches: np.ndarray | None,
        blocks: np.ndarray,
        writes: np.ndarray | bool,
        sets: np.ndarray | None = None,
    ) -> CacheArrayResult:
        """Resolve a batch of in-order accesses across all caches.

        Args:
            caches: int array selecting the cache of each access; not
                read when ``sets`` is given.
            blocks: int64 block numbers, in program order per cache.
            writes: bool array (or scalar) marking write accesses.
            sets: optional :meth:`set_index` of each access, for callers
                that keep it in a per-address table.

        Returns:
            Aggregate and per-cache hit/miss/write-back counts.  Lifetime
            counters and persistent tag/dirty state update in place.
        """
        blocks = np.asarray(blocks, dtype=np.int64)
        if sets is None:
            caches = np.asarray(caches, dtype=np.int64)
            if blocks.ndim != 1 or caches.shape != blocks.shape:
                raise ConfigError(
                    "caches and blocks must be equal-length 1-D arrays"
                )
            if blocks.shape[0] and (
                caches.min() < 0 or caches.max() >= self.num_caches
            ):
                raise ConfigError("cache index out of range")
            sets = self.set_index(caches, blocks)
        elif blocks.ndim != 1 or sets.shape != blocks.shape:
            raise ConfigError("sets and blocks must be equal-length 1-D arrays")
        n = blocks.shape[0]
        num_caches = self.num_caches
        if n == 0:
            zeros = np.zeros(num_caches, dtype=np.int64)
            return CacheArrayResult(0, 0, 0, zeros, zeros.copy())
        scalar_writes = np.isscalar(writes) or isinstance(writes, (bool, np.bool_))
        if scalar_writes:
            writes = bool(writes)
        else:
            writes = np.asarray(writes, dtype=bool)
            if writes.shape != blocks.shape:
                raise ConfigError("writes must match blocks in shape")

        num_sets = self.num_sets
        order = self._set_order(sets)
        sets = sets.take(order)
        blocks = blocks.take(order)

        # Set runs: each set's accesses, contiguous and in program order.
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(sets[1:], sets[:-1], out=head[1:])
        heads = np.flatnonzero(head)
        lasts = np.empty_like(heads)
        lasts[:-1] = heads[1:] - 1
        lasts[-1] = n - 1
        run_sets = sets[heads].astype(np.intp)
        resident = self._tags[run_sets]
        resident_dirty = self._dirty[run_sets]

        # Inside a run an access misses iff it changes block; a run's head
        # consults the persistent tag store.
        misses = np.empty(n, dtype=bool)
        np.not_equal(blocks[1:], blocks[:-1], out=misses[1:])
        head_misses = resident != blocks[heads]
        misses[heads] = head_misses
        run_misses = _run_counts(misses, heads)
        # A miss at a run head evicts the resident line; a miss inside a
        # run evicts the in-batch tenancy before it.
        run_writebacks = (
            head_misses & resident_dirty & (resident != self._INVALID)
        ).astype(np.int64)
        if scalar_writes and writes:
            # Every in-batch tenancy is written: every inside miss writes
            # back and every touched line ends dirty.
            run_writebacks += run_misses - head_misses
            final_dirty = True
        else:
            # A tenancy begins at every miss and at every run head.  It is
            # dirty iff one of its accesses writes or, for a head hit, the
            # resident line it continues was dirty.
            starts = misses | head
            tenancy = np.cumsum(starts) - 1
            if scalar_writes:
                dirty = np.zeros(int(tenancy[-1]) + 1, dtype=bool)
            else:
                dirty = np.logical_or.reduceat(
                    writes[order], np.flatnonzero(starts)
                )
            dirty[tenancy[heads]] |= ~head_misses & resident_dirty
            inside = np.flatnonzero(misses & ~head)
            evicts = np.zeros(n, dtype=bool)
            evicts[inside] = dirty[tenancy[inside] - 1]
            run_writebacks += _run_counts(evicts, heads)
            final_dirty = dirty[tenancy[lasts]]

        # Persist final state: the last tenancy of each set run survives.
        self._tags[run_sets] = blocks[lasts]
        self._dirty[run_sets] = final_dirty

        run_caches = run_sets // num_sets
        misses_per_cache = np.zeros(num_caches, dtype=np.int64)
        np.add.at(misses_per_cache, run_caches, run_misses)
        writebacks_per_cache = np.zeros(num_caches, dtype=np.int64)
        np.add.at(writebacks_per_cache, run_caches, run_writebacks)
        miss_count = int(np.add.reduce(run_misses))
        hit_count = n - miss_count
        writebacks = int(np.add.reduce(run_writebacks))
        self.lifetime_hits += hit_count
        self.lifetime_misses += miss_count
        self.lifetime_writebacks += writebacks
        return CacheArrayResult(
            hits=hit_count,
            misses=miss_count,
            writebacks=writebacks,
            misses_per_cache=misses_per_cache,
            writebacks_per_cache=writebacks_per_cache,
        )

    def _set_order(self, sets: np.ndarray) -> np.ndarray:
        """Stable permutation sorting ``sets``: 16-bit LSD radix passes.

        numpy's stable sort is a radix sort for integers of 16 bits or
        fewer, so each pass is O(n); a comparison sort of wider keys is
        not.  A key of 16 bits or fewer is its own first digit.
        """
        low = sets if sets.dtype.itemsize <= 2 else sets.astype(np.uint16)
        order = np.argsort(low, kind="stable")
        for shift in self._digit_shifts[1:]:
            digit = (sets[order] >> shift).astype(np.uint16)
            order = order[np.argsort(digit, kind="stable")]
        return order

    def flush(self) -> int:
        """Invalidate everything; return dirty lines written back."""
        dirty_lines = int(
            np.count_nonzero(self._dirty & (self._tags != self._INVALID))
        )
        self._tags.fill(self._INVALID)
        self._dirty.fill(False)
        self.lifetime_writebacks += dirty_lines
        return dirty_lines

    def hit_rate(self) -> float:
        total = self.lifetime_hits + self.lifetime_misses
        if total == 0:
            return 0.0
        return self.lifetime_hits / total


class DirectMappedCache:
    """A single direct-mapped write-back cache (CacheArray of one)."""

    def __init__(self, capacity_bytes: int, line_bytes: int) -> None:
        self._array = CacheArray(1, capacity_bytes, line_bytes)
        self.capacity_bytes = capacity_bytes
        self.line_bytes = line_bytes
        self.num_sets = self._array.num_sets

    def access(self, blocks: np.ndarray, writes: np.ndarray | bool) -> CacheBatchResult:
        blocks = np.asarray(blocks, dtype=np.int64)
        result = self._array.access(
            np.zeros(blocks.shape[0], dtype=np.int64), blocks, writes
        )
        return CacheBatchResult(result.hits, result.misses, result.writebacks)

    def flush(self) -> int:
        return self._array.flush()

    def hit_rate(self) -> float:
        return self._array.hit_rate()

    @property
    def lifetime_hits(self) -> int:
        return self._array.lifetime_hits

    @property
    def lifetime_misses(self) -> int:
        return self._array.lifetime_misses

    @property
    def lifetime_writebacks(self) -> int:
        return self._array.lifetime_writebacks

    @property
    def resident_blocks(self) -> np.ndarray:
        """Blocks currently resident (for tests and invariants)."""
        tags = self._array._tags
        return tags[tags != CacheArray._INVALID]
