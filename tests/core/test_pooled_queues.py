"""Pooled queues must match per-PE queue arrays operation for operation.

:class:`PooledMessageQueue` and :class:`PooledPendingWork` are the
vectorized engine's replacement for ``num_pes`` independent
:class:`MessageQueue` / :class:`PendingWork` instances.  These tests
drive a pooled instance and a list of per-PE references through the same
randomized push/pop schedule and require identical streams: PE-major
order, FIFO within each PE, identical splits of partially consumed edge
ranges, identical occupancy counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.queues import (
    MessageQueue,
    PendingWork,
    PooledMessageQueue,
    PooledPendingWork,
)
from repro.errors import SimulationError

P = 5


def pe_sorted(rng, n):
    """Random PE column, sorted ascending (the push_sorted contract)."""
    return np.sort(rng.integers(0, P, size=n))


def per_pe(pes, num_pes=P):
    """Rows per PE of a PE-sorted column (the inbox's push argument)."""
    return np.bincount(pes, minlength=num_pes)


class TestPooledMessageQueue:
    def reference_pop_all(self, queues, budget):
        counts, dest, values = [], [], []
        for queue in queues:
            d, v = queue.pop(budget)
            counts.append(d.shape[0])
            dest.append(d)
            values.append(v)
        return (
            np.array(counts, dtype=np.int64),
            np.concatenate(dest),
            np.concatenate(values),
        )

    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_randomized_schedule_matches_per_pe_queues(self, seed):
        rng = np.random.default_rng(seed)
        pooled = PooledMessageQueue(P)
        reference = [MessageQueue() for _ in range(P)]
        for _ in range(40):
            if rng.random() < 0.6:
                n = int(rng.integers(0, 30))
                pes = pe_sorted(rng, n)
                dest = rng.integers(0, 1000, size=n)
                values = rng.random(n)
                pooled.push_sorted(per_pe(pes), dest, values)
                for pe in range(P):
                    mask = pes == pe
                    reference[pe].push(dest[mask], values[mask])
            else:
                budget = int(rng.integers(0, 12))
                got = pooled.pop_all(budget)
                want = self.reference_pop_all(reference, budget)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)
            assert pooled.total == sum(len(q) for q in reference)
            for pe in range(P):
                assert pooled.sizes[pe] == len(reference[pe])
        assert pooled.any() == (pooled.total > 0)

    def test_pop_all_caps_per_pe_not_globally(self):
        pooled = PooledMessageQueue(2)
        pooled.push_sorted(np.array([3, 2]), np.arange(5), np.arange(5.0))
        got_counts, got_dest, _ = pooled.pop_all(2)
        assert list(got_counts) == [2, 2]
        assert list(got_dest) == [0, 1, 3, 4]
        assert list(pooled.sizes) == [1, 0]

    def test_fifo_across_batches(self):
        pooled = PooledMessageQueue(1)
        pooled.push_sorted(np.array([2]), np.array([10, 11]), np.zeros(2))
        pooled.push_sorted(np.array([1]), np.array([12]), np.zeros(1))
        _, dest, _ = pooled.pop_all(10)
        assert list(dest) == [10, 11, 12]


    @pytest.mark.parametrize("seed", range(6))
    def test_pops_spanning_batches_match_per_pe_queues(self, seed):
        """Several batches queue up before most pops, so a pop assembles
        each PE's run from two or more batches."""
        rng = np.random.default_rng(seed)
        pooled = PooledMessageQueue(P)
        reference = [MessageQueue() for _ in range(P)]
        spanning = 0
        for _ in range(30):
            for _ in range(int(rng.integers(1, 4))):
                n = int(rng.integers(0, 25))
                pes = pe_sorted(rng, n)
                dest = rng.integers(0, 1000, size=n)
                values = rng.random(n)
                pooled.push_sorted(per_pe(pes), dest, values)
                for pe in range(P):
                    reference[pe].push(dest[pes == pe], values[pes == pe])
            spanning += len(pooled._batches) >= 2
            budget = int(rng.integers(1, 20))
            got = pooled.pop_all(budget)
            want = self.reference_pop_all(reference, budget)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                assert np.array_equal(g, w)
            assert list(pooled.sizes) == [len(q) for q in reference]
            assert pooled.popped == sum(q.popped for q in reference)
        assert spanning >= 10

    def test_whole_batch_drains_without_copy(self):
        pooled = PooledMessageQueue(2)
        dest, values = np.array([5, 6, 7]), np.array([0.5, 0.6, 0.7])
        pooled.push_sorted(np.array([1, 2]), dest, values)
        counts, got_dest, got_values = pooled.pop_all(8)
        assert got_dest is dest and got_values is values
        assert list(counts) == [1, 2]
        assert not pooled.any()

    def test_push_rejects_counts_that_miss_the_batch(self):
        pooled = PooledMessageQueue(2)
        with pytest.raises(SimulationError):
            pooled.push_sorted(np.array([1, 1]), np.arange(3), np.zeros(3))
        with pytest.raises(SimulationError):
            pooled.push_sorted(np.array([3]), np.arange(3), np.zeros(3))
        with pytest.raises(SimulationError):
            pooled.push_sorted(np.array([4, -1]), np.arange(3), np.zeros(3))


class TestPooledPendingWork:
    def reference_pop_edges_all(self, queues, budget):
        pes, vertices, values, starts, ends = [], [], [], [], []
        for pe, queue in enumerate(queues):
            v, a, s, e = queue.pop_edges(budget)
            pes.append(np.full(v.shape[0], pe, dtype=np.int64))
            vertices.append(v)
            values.append(a)
            starts.append(s)
            ends.append(e)
        return (
            np.concatenate(pes),
            np.concatenate(vertices),
            np.concatenate(values),
            np.concatenate(starts),
            np.concatenate(ends),
        )

    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_randomized_schedule_matches_per_pe_queues(self, seed):
        rng = np.random.default_rng(seed)
        pooled = PooledPendingWork(P)
        reference = [PendingWork() for _ in range(P)]
        for _ in range(40):
            if rng.random() < 0.6:
                n = int(rng.integers(0, 20))
                pes = pe_sorted(rng, n)
                vertices = rng.integers(0, 500, size=n)
                values = rng.random(n)
                starts = rng.integers(0, 100, size=n)
                # Mix zero-length and multi-edge ranges.
                ends = starts + rng.integers(0, 7, size=n)
                pooled.push_sorted(pes, vertices, values, starts, ends)
                for pe in range(P):
                    mask = pes == pe
                    reference[pe].push(
                        vertices[mask], values[mask], starts[mask], ends[mask]
                    )
            else:
                budget = int(rng.integers(0, 15))
                got = pooled.pop_edges_all(budget)
                want = self.reference_pop_edges_all(reference, budget)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)
            assert pooled.total_entries == sum(len(q) for q in reference)
            assert pooled.total_edges == sum(q.edges for q in reference)
            for pe in range(P):
                assert pooled.entries_per_pe[pe] == len(reference[pe])

    def test_split_entry_resumes_where_it_stopped(self):
        pooled = PooledPendingWork(1)
        pooled.push_sorted(
            np.zeros(1, dtype=np.int64),
            np.array([7]),
            np.array([1.5]),
            np.array([10]),
            np.array([20]),
        )
        _, v1, _, s1, e1 = pooled.pop_edges_all(4)
        assert (list(v1), list(s1), list(e1)) == ([7], [10], [14])
        _, v2, _, s2, e2 = pooled.pop_edges_all(100)
        assert (list(v2), list(s2), list(e2)) == ([7], [14], [20])
        assert pooled.total_entries == 0
        assert pooled.total_edges == 0

    def test_zero_degree_entries_drain(self):
        pooled = PooledPendingWork(1)
        pooled.push_sorted(
            np.zeros(2, dtype=np.int64),
            np.array([1, 2]),
            np.array([0.0, 0.0]),
            np.array([5, 6]),
            np.array([5, 6]),
        )
        pes, vertices, _, starts, ends = pooled.pop_edges_all(1)
        assert list(vertices) == [1, 2]
        assert np.array_equal(starts, ends)
        assert pooled.total_entries == 0
