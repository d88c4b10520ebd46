"""Direct-mapped cache: exact semantics against a scalar reference model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.memory.cache import CacheArray, DirectMappedCache


class ScalarCache:
    """Textbook one-access-at-a-time direct-mapped write-back cache."""

    def __init__(self, num_sets: int) -> None:
        self.tags = {}  # set -> resident block
        self.dirty = {}  # set -> dirty bit of the resident block
        self.num_sets = num_sets
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def access(self, block: int, write: bool) -> None:
        s = block % self.num_sets
        if self.tags.get(s) == block:
            self.hits += 1
        else:
            self.misses += 1
            if self.dirty.get(s, False):
                self.writebacks += 1
            self.tags[s] = block
            self.dirty[s] = False
        if write:
            self.dirty[s] = True

    def flush(self) -> int:
        dirty_lines = sum(self.dirty.values())
        self.tags.clear()
        self.dirty.clear()
        self.writebacks += dirty_lines
        return dirty_lines

    def counts(self) -> tuple:
        return self.hits, self.misses, self.writebacks


class TestBasics:
    def test_construction_validation(self):
        with pytest.raises(ConfigError):
            DirectMappedCache(0, 32)
        with pytest.raises(ConfigError):
            DirectMappedCache(100, 32)  # not a multiple
        with pytest.raises(ConfigError):
            CacheArray(0, 1024, 32)

    def test_cold_miss_then_hit(self):
        cache = DirectMappedCache(1024, 32)  # 32 sets
        r = cache.access(np.array([5, 5, 5]), writes=False)
        assert (r.misses, r.hits, r.writebacks) == (1, 2, 0)

    def test_conflict_eviction(self):
        cache = DirectMappedCache(1024, 32)
        # Blocks 0 and 32 share set 0.
        r = cache.access(np.array([0, 32, 0]), writes=False)
        assert r.misses == 3
        assert r.writebacks == 0  # clean lines evict silently

    def test_dirty_eviction_writes_back(self):
        cache = DirectMappedCache(1024, 32)
        r = cache.access(np.array([0, 32]), writes=np.array([True, False]))
        assert r.writebacks == 1

    def test_state_persists_across_batches(self):
        cache = DirectMappedCache(1024, 32)
        cache.access(np.array([7]), writes=True)
        r = cache.access(np.array([7]), writes=False)
        assert r.hits == 1
        # Evicting it later still writes back the dirty line.
        r = cache.access(np.array([7 + 32]), writes=False)
        assert r.writebacks == 1

    def test_flush(self):
        cache = DirectMappedCache(1024, 32)
        cache.access(np.array([1, 2, 3]), writes=True)
        assert cache.flush() == 3
        assert cache.flush() == 0
        r = cache.access(np.array([1]), writes=False)
        assert r.misses == 1

    def test_hit_rate(self):
        cache = DirectMappedCache(1024, 32)
        assert cache.hit_rate() == 0.0
        cache.access(np.array([1, 1, 1, 1]), writes=False)
        assert cache.hit_rate() == pytest.approx(0.75)

    def test_empty_batch(self):
        cache = DirectMappedCache(1024, 32)
        r = cache.access(np.array([], dtype=np.int64), writes=False)
        assert r.accesses == 0

    def test_resident_blocks(self):
        cache = DirectMappedCache(1024, 32)
        cache.access(np.array([3, 40]), writes=False)
        assert set(cache.resident_blocks.tolist()) == {3, 40}


class TestCacheArrayIsolation:
    def test_caches_do_not_interfere(self):
        array = CacheArray(2, 1024, 32)
        array.access(np.array([0]), np.array([5]), writes=False)
        # Same block in a different cache is a fresh miss.
        r = array.access(np.array([1]), np.array([5]), writes=False)
        assert r.misses == 1

    def test_per_cache_counts(self):
        array = CacheArray(3, 1024, 32)
        caches = np.array([0, 0, 2, 2, 2])
        blocks = np.array([1, 1, 9, 9, 41])  # 9 and 41 conflict in set 9
        r = array.access(caches, blocks, writes=True)
        assert r.misses_per_cache.tolist() == [1, 0, 2]
        assert r.writebacks_per_cache.tolist() == [0, 0, 1]
        assert r.misses == 3
        assert r.hits == 2

    def test_index_validation(self):
        array = CacheArray(2, 1024, 32)
        with pytest.raises(ConfigError):
            array.access(np.array([5]), np.array([1]), writes=False)
        with pytest.raises(ConfigError):
            array.access(np.array([0, 1]), np.array([1]), writes=False)


@st.composite
def access_traces(draw):
    num_batches = draw(st.integers(1, 4))
    batches = []
    for _ in range(num_batches):
        n = draw(st.integers(0, 60))
        blocks = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
        writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        batches.append((blocks, writes))
    return batches


class TestAgainstScalarReference:
    @given(access_traces(), st.sampled_from([4, 8, 16]))
    @settings(max_examples=120, deadline=None)
    def test_batched_matches_scalar(self, batches, num_sets):
        cache = DirectMappedCache(num_sets * 32, 32)
        reference = ScalarCache(num_sets)
        for blocks, writes in batches:
            cache.access(
                np.asarray(blocks, dtype=np.int64),
                np.asarray(writes, dtype=bool),
            )
            for b, w in zip(blocks, writes):
                reference.access(b, w)
        assert cache.lifetime_hits == reference.hits
        assert cache.lifetime_misses == reference.misses
        assert cache.lifetime_writebacks == reference.writebacks

    @given(access_traces())
    @settings(max_examples=60, deadline=None)
    def test_multi_cache_matches_independent_scalars(self, batches):
        array = CacheArray(3, 8 * 32, 32)
        refs = [ScalarCache(8) for _ in range(3)]
        rng = np.random.default_rng(7)
        for blocks, writes in batches:
            n = len(blocks)
            caches = rng.integers(0, 3, size=n)
            array.access(
                caches,
                np.asarray(blocks, dtype=np.int64),
                np.asarray(writes, dtype=bool),
            )
            for c, b, w in zip(caches, blocks, writes):
                refs[c].access(b, w)
        assert array.lifetime_hits == sum(r.hits for r in refs)
        assert array.lifetime_misses == sum(r.misses for r in refs)
        assert array.lifetime_writebacks == sum(r.writebacks for r in refs)


#: (num_caches, num_sets).  Set keys are uint8 up to 256 sets in all and
#: uint16 up to 2**16 (16 x 32: the 2-GPN engine's).  The last has 2**17
#: sets in all, so grouping by set takes a second 16-bit radix pass: set
#: s of cache 0 and set s of cache 1 share their low 16 bits and differ
#: only in the high digit.
GEOMETRIES = [(1, 4), (3, 8), (5, 32), (16, 32), (2, 1 << 16)]


@st.composite
def cache_batches(draw):
    """Geometry plus batches of (unsorted caches, blocks, writes, flush,
    whether the batch passes precomputed ``sets``)."""
    num_caches, num_sets = draw(st.sampled_from(GEOMETRIES))
    batches = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(0, 60))
        caches = draw(
            st.lists(st.integers(0, num_caches - 1), min_size=n, max_size=n)
        )
        # A handful of sets, each with a few conflicting blocks.
        slots = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        tags = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        blocks = [slot + tag * num_sets for slot, tag in zip(slots, tags)]
        writes = draw(
            st.one_of(
                st.booleans(),
                st.lists(st.booleans(), min_size=n, max_size=n).map(
                    lambda w: np.asarray(w, dtype=bool)
                ),
            )
        )
        batches.append(
            (caches, blocks, writes, draw(st.booleans()), draw(st.booleans()))
        )
    return num_caches, num_sets, batches


class TestEveryBatchAgainstScalarReference:
    """Per-batch results and resident state equal per-cache scalar models.

    Both engines call the same :class:`CacheArray`, so engine parity
    cannot catch a bug in the walk; this checks it directly, with the
    engines' scalar ``writes`` as well as per-access writes, and with
    ``caches`` as well as the vectorized engine's precomputed ``sets``.
    """

    @given(cache_batches())
    @settings(max_examples=150, deadline=None)
    def test_each_batch_matches_scalar_caches(self, workload):
        num_caches, num_sets, batches = workload
        array = CacheArray(num_caches, num_sets * 32, 32)
        refs = [ScalarCache(num_sets) for _ in range(num_caches)]
        for caches, blocks, writes, flush, precomputed in batches:
            before = [r.counts() for r in refs]
            per_access = np.broadcast_to(writes, (len(blocks),))
            caches = np.asarray(caches, dtype=np.int64)
            blocks = np.asarray(blocks, dtype=np.int64)
            if precomputed:
                sets = array.set_index(caches, blocks)
                assert sets.tolist() == (
                    caches * num_sets + blocks % num_sets
                ).tolist()
                result = array.access(None, blocks, writes, sets=sets)
            else:
                result = array.access(caches, blocks, writes)
            for c, b, w in zip(caches, blocks, per_access):
                refs[c].access(b, bool(w))
            delta = np.array(
                [np.subtract(r.counts(), b) for r, b in zip(refs, before)]
            )
            assert (result.hits, result.misses, result.writebacks) == tuple(
                delta.sum(axis=0)
            )
            assert result.misses_per_cache.tolist() == delta[:, 1].tolist()
            assert result.writebacks_per_cache.tolist() == delta[:, 2].tolist()
            self.assert_same_lines(array, refs)
            if flush:
                assert array.flush() == sum(r.flush() for r in refs)
                self.assert_same_lines(array, refs)
        assert array.lifetime_hits == sum(r.hits for r in refs)
        assert array.lifetime_misses == sum(r.misses for r in refs)
        assert array.lifetime_writebacks == sum(r.writebacks for r in refs)

    @staticmethod
    def assert_same_lines(array, refs):
        tags = array._tags.reshape(len(refs), -1)
        dirty = array._dirty.reshape(len(refs), -1)
        for c, ref in enumerate(refs):
            resident = np.flatnonzero(tags[c] != CacheArray._INVALID)
            assert dict(zip(resident.tolist(), tags[c, resident].tolist())) == ref.tags
            assert np.flatnonzero(dirty[c]).tolist() == sorted(
                s for s, d in ref.dirty.items() if d
            )

    @pytest.mark.parametrize(
        "num_caches, num_sets, dtype",
        [(8, 32, np.uint8), (16, 32, np.uint16), (264, 32, np.uint16),
         (64, 2048, np.uint32)],
    )
    def test_set_key_is_narrowest_unsigned(self, num_caches, num_sets, dtype):
        array = CacheArray(num_caches, num_sets * 32, 32)
        last = array.set_index(np.array([num_caches - 1]), np.array([-1]))
        assert last.dtype == dtype
        assert last.tolist() == [num_caches * num_sets - 1]

    def test_high_radix_digit_separates_caches(self):
        """Same low 16 bits of set index, different cache: no shared line."""
        num_sets = 1 << 16
        array = CacheArray(2, num_sets * 32, 32)
        caches = np.array([0, 1, 0, 1], dtype=np.int64)
        blocks = np.array([5, 5, 5, 5 + num_sets], dtype=np.int64)
        result = array.access(caches, blocks, writes=True)
        assert (result.hits, result.misses, result.writebacks) == (1, 3, 1)
        assert result.misses_per_cache.tolist() == [1, 2]
        assert result.writebacks_per_cache.tolist() == [0, 1]
