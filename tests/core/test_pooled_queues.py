"""Pooled queues must match per-PE queue arrays operation for operation.

:class:`PooledQueue` (the vectorized engine's inboxes and spill buffers)
and its :class:`PooledPendingWork` subclass (the active buffers) replace
``num_pes`` independent :class:`MessageQueue` / :class:`PendingWork`
instances.  These tests drive a pooled instance and a list of per-PE
references through the same randomized push/pop schedule and require
identical streams: PE-major order, FIFO within each PE, identical splits
of partially consumed edge ranges, identical occupancy counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.queues import (
    MessageQueue,
    PendingWork,
    PooledPendingWork,
    PooledQueue,
)
from repro.errors import SimulationError

P = 5


def pe_sorted(rng, n):
    """Random PE column, sorted ascending (the push_sorted contract)."""
    return np.sort(rng.integers(0, P, size=n))


def per_pe(pes, num_pes=P):
    """Rows per PE of a PE-sorted column (the push_sorted argument)."""
    return np.bincount(pes, minlength=num_pes)


def message_pool(num_pes=P):
    return PooledQueue(num_pes, (np.int64, np.float64))


def assert_same_pop(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def count_batches_read(pooled):
    """Spy on the shared gather: how many batches each pop reads from."""
    reads = []
    gather = pooled._pop_rows

    def spy(counts, takes, advances):
        reads.append(sum(int(take.sum()) > 0 for take in takes))
        return gather(counts, takes, advances)

    pooled._pop_rows = spy
    return reads


class TestPooledMessageQueue:
    """The pooled queue as an inbox, against per-PE MessageQueues."""

    def reference_pop_all(self, queues, budgets):
        counts, dest, values = [], [], []
        for queue, budget in zip(queues, budgets):
            d, v = queue.pop(int(budget))
            counts.append(d.shape[0])
            dest.append(d)
            values.append(v)
        return (
            np.array(counts, dtype=np.int64),
            np.concatenate(dest),
            np.concatenate(values),
        )

    def push_both(self, rng, pooled, reference, max_rows):
        n = int(rng.integers(0, max_rows))
        pes = pe_sorted(rng, n)
        dest = rng.integers(0, 1000, size=n)
        values = rng.random(n)
        pooled.push_sorted(per_pe(pes), dest, values)
        for pe in range(P):
            reference[pe].push(dest[pes == pe], values[pes == pe])

    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_randomized_schedule_matches_per_pe_queues(self, seed):
        rng = np.random.default_rng(seed)
        pooled = message_pool()
        reference = [MessageQueue() for _ in range(P)]
        for _ in range(40):
            if rng.random() < 0.6:
                self.push_both(rng, pooled, reference, 30)
            else:
                budget = int(rng.integers(0, 12))
                got = pooled.pop_all(budget)
                want = self.reference_pop_all(reference, [budget] * P)
                assert_same_pop(got, want)
            assert pooled.total == sum(len(q) for q in reference)
            for pe in range(P):
                assert pooled.sizes[pe] == len(reference[pe])
        assert pooled.any() == (pooled.total > 0)

    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_per_pe_budget_pops_only_the_pes_under_target(self, seed):
        """FIFO-mode retrieval's pop: a PE whose active buffer holds its
        target already gets budget 0; every other PE pops up to it."""
        rng = np.random.default_rng(seed)
        pooled = message_pool()
        reference = [MessageQueue() for _ in range(P)]
        target = 6
        for _ in range(30):
            for _ in range(int(rng.integers(1, 3))):
                self.push_both(rng, pooled, reference, 25)
            entries = rng.integers(0, 2 * target, size=P)
            budget = np.where(entries < target, target, 0)
            got = pooled.pop_all(budget)
            assert_same_pop(got, self.reference_pop_all(reference, budget))
            assert not got[0][entries >= target].any()
            assert list(pooled.sizes) == [len(q) for q in reference]

    def test_pop_all_caps_per_pe_not_globally(self):
        pooled = message_pool(2)
        pooled.push_sorted(np.array([3, 2]), np.arange(5), np.arange(5.0))
        got_counts, got_dest, _ = pooled.pop_all(2)
        assert list(got_counts) == [2, 2]
        assert list(got_dest) == [0, 1, 3, 4]
        assert list(pooled.sizes) == [1, 0]

    def test_fifo_across_batches(self):
        pooled = message_pool(1)
        pooled.push_sorted(np.array([2]), np.array([10, 11]), np.zeros(2))
        pooled.push_sorted(np.array([1]), np.array([12]), np.zeros(1))
        _, dest, _ = pooled.pop_all(10)
        assert list(dest) == [10, 11, 12]

    @pytest.mark.parametrize("seed", range(6))
    def test_pops_spanning_batches_match_per_pe_queues(self, seed):
        """Several batches queue up before most pops, so a pop assembles
        each PE's run from two or more batches."""
        rng = np.random.default_rng(seed)
        pooled = message_pool()
        reads = count_batches_read(pooled)
        reference = [MessageQueue() for _ in range(P)]
        for _ in range(30):
            for _ in range(int(rng.integers(1, 4))):
                self.push_both(rng, pooled, reference, 25)
            budget = int(rng.integers(1, 20))
            got = pooled.pop_all(budget)
            assert_same_pop(got, self.reference_pop_all(reference, [budget] * P))
            assert list(pooled.sizes) == [len(q) for q in reference]
            assert pooled.popped == sum(q.popped for q in reference)
        assert sum(read >= 2 for read in reads) >= 10

    def test_whole_batch_drains_without_copy(self):
        pooled = message_pool(2)
        dest, values = np.array([5, 6, 7]), np.array([0.5, 0.6, 0.7])
        pooled.push_sorted(np.array([1, 2]), dest, values)
        counts, got_dest, got_values = pooled.pop_all(8)
        assert got_dest is dest and got_values is values
        assert list(counts) == [1, 2]
        assert not pooled.any()

    def test_push_rejects_counts_that_miss_the_batch(self):
        pooled = message_pool(2)
        with pytest.raises(SimulationError):
            pooled.push_sorted(np.array([1, 1]), np.arange(3), np.zeros(3))
        with pytest.raises(SimulationError):
            pooled.push_sorted(np.array([3]), np.arange(3), np.zeros(3))
        with pytest.raises(SimulationError):
            pooled.push_sorted(np.array([4, -1]), np.arange(3), np.zeros(3))
        with pytest.raises(SimulationError):
            pooled.push_sorted(np.array([1, 2]), np.arange(3), np.zeros(2))
        with pytest.raises(SimulationError):
            pooled.push_sorted(np.array([1, 2]), np.arange(3))


class TestPooledPendingWork:
    def reference_pop_edges_all(self, queues, budget):
        counts, vertices, values, starts, ends = [], [], [], [], []
        for queue in queues:
            v, a, s, e = queue.pop_edges(budget)
            counts.append(v.shape[0])
            vertices.append(v)
            values.append(a)
            starts.append(s)
            ends.append(e)
        return (
            np.array(counts, dtype=np.int64),
            np.concatenate(vertices),
            np.concatenate(values),
            np.concatenate(starts),
            np.concatenate(ends),
        )

    def push_both(self, rng, pooled, reference, max_rows):
        n = int(rng.integers(0, max_rows))
        pes = pe_sorted(rng, n)
        vertices = rng.integers(0, 500, size=n)
        values = rng.random(n)
        starts = rng.integers(0, 100, size=n)
        # Mix zero-length and multi-edge ranges.
        ends = starts + rng.integers(0, 7, size=n)
        pooled.push_sorted(per_pe(pes), vertices, values, starts, ends)
        for pe in range(P):
            mask = pes == pe
            reference[pe].push(
                vertices[mask], values[mask], starts[mask], ends[mask]
            )

    def assert_same_occupancy(self, pooled, reference):
        assert list(pooled.sizes) == [q.entries for q in reference]
        assert list(pooled.edges) == [q.edges for q in reference]

    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_randomized_schedule_matches_per_pe_queues(self, seed):
        rng = np.random.default_rng(seed)
        pooled = PooledPendingWork(P)
        reference = [PendingWork() for _ in range(P)]
        for _ in range(40):
            if rng.random() < 0.6:
                self.push_both(rng, pooled, reference, 20)
            else:
                budget = int(rng.integers(0, 15))
                got = pooled.pop_edges_all(budget)
                want = self.reference_pop_edges_all(reference, budget)
                assert_same_pop(got, want)
            self.assert_same_occupancy(pooled, reference)

    @pytest.mark.parametrize("seed", range(4))
    def test_pops_spanning_batches_with_splits_match_per_pe_queues(self, seed):
        """Batches pile up between pops, so a PE's edge budget often runs
        through one batch into the next and ends inside an entry."""
        rng = np.random.default_rng(seed)
        pooled = PooledPendingWork(P)
        reads = count_batches_read(pooled)
        reference = [PendingWork() for _ in range(P)]
        spanning_splits = 0
        for _ in range(40):
            for _ in range(int(rng.integers(1, 4))):
                self.push_both(rng, pooled, reference, 15)
            entries_before = pooled.sizes.copy()
            budget = int(rng.integers(1, 25))
            got = pooled.pop_edges_all(budget)
            assert_same_pop(got, self.reference_pop_edges_all(reference, budget))
            self.assert_same_occupancy(pooled, reference)
            # A split row is returned but stays queued.
            split = (got[0] > entries_before - pooled.sizes).any()
            spanning_splits += bool(split and reads[-1] >= 2)
        assert spanning_splits >= 10

    def test_split_entry_resumes_where_it_stopped(self):
        pooled = PooledPendingWork(1)
        pooled.push_sorted(
            np.ones(1, dtype=np.int64),
            np.array([7]),
            np.array([1.5]),
            np.array([10]),
            np.array([20]),
        )
        counts, v1, _, s1, e1 = pooled.pop_edges_all(4)
        assert (list(counts), list(v1), list(s1), list(e1)) == (
            [1], [7], [10], [14]
        )
        _, v2, _, s2, e2 = pooled.pop_edges_all(100)
        assert (list(v2), list(s2), list(e2)) == ([7], [14], [20])
        assert pooled.total == 0
        assert list(pooled.edges) == [0]

    def test_split_inside_a_whole_batch_returns_copies(self):
        """Every row of the batch is read, but the split entry stays
        queued: the pop must not hand out the batch's own columns."""
        pooled = PooledPendingWork(2)
        columns = (
            np.array([3, 4, 5]),
            np.array([0.3, 0.4, 0.5]),
            np.array([0, 10, 20]),
            np.array([2, 14, 26]),
        )
        pushed = [column.copy() for column in columns]
        pooled.push_sorted(np.array([1, 2]), *columns)
        # PE 0 drains its entry; PE 1 takes entry 4 whole and 2 of
        # entry 5's 6 edges.
        counts, *got = pooled.pop_edges_all(6)
        assert list(counts) == [1, 2]
        assert [list(column) for column in got] == [
            [3, 4, 5], [0.3, 0.4, 0.5], [0, 10, 20], [2, 14, 22]
        ]
        for column, mine in zip(got, columns):
            assert not np.shares_memory(column, mine)
        for mine, before in zip(columns, pushed):
            assert np.array_equal(mine, before)
        assert list(pooled.sizes) == [0, 1]
        assert list(pooled.edges) == [0, 4]
        counts, *rest = pooled.pop_edges_all(100)
        assert list(counts) == [0, 1]
        assert [list(column) for column in rest] == [[5], [0.5], [22], [26]]
        assert not pooled.any()
        assert list(pooled.edges) == [0, 0]

    def test_zero_degree_entries_drain(self):
        pooled = PooledPendingWork(1)
        pooled.push_sorted(
            np.array([2]),
            np.array([1, 2]),
            np.array([0.0, 0.0]),
            np.array([5, 6]),
            np.array([5, 6]),
        )
        counts, vertices, _, starts, ends = pooled.pop_edges_all(1)
        assert list(counts) == [2]
        assert list(vertices) == [1, 2]
        assert np.array_equal(starts, ends)
        assert pooled.total == 0

    def test_push_rejects_reversed_ranges(self):
        pooled = PooledPendingWork(1)
        with pytest.raises(SimulationError):
            pooled.push_sorted(
                np.array([1]), np.array([1]), np.zeros(1),
                np.array([5]), np.array([4]),
            )
        assert not pooled.any()
