"""Tracker module: superblock counters, scans, and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layout import VertexMemoryLayout
from repro.core.tracker import TrackerModule
from repro.graph.partition import interleave_placement, random_placement
from repro.sim.config import scaled_config


def make_tracker(num_vertices=2048, num_gpns=1, superblock_dim=8):
    cfg = scaled_config(num_gpns=num_gpns, scale=1 / 1024).with_updates(
        superblock_dim=superblock_dim
    )
    placement = interleave_placement(num_vertices, cfg.num_pes)
    layout = VertexMemoryLayout(placement, cfg)
    return TrackerModule(layout), layout


class TestTracking:
    def test_track_counts_blocks_not_vertices(self):
        tracker, layout = make_tracker()
        # Two vertices in the same block on PE 0: locals 0 and 1 are
        # globals 0 and 8 under interleave over 8 PEs.
        added = tracker.track(np.array([0, 8]))
        assert added == 1
        assert tracker.counters[0].sum() == 1

    def test_track_idempotent_per_block(self):
        tracker, _ = make_tracker()
        tracker.track(np.array([0]))
        added = tracker.track(np.array([0, 8]))
        assert added == 0
        tracker.check_invariants()

    def test_track_spreads_across_pes(self):
        tracker, _ = make_tracker()
        tracker.track(np.arange(8))  # one vertex per PE
        assert (tracker.counters.sum(axis=1) == 1).all()

    def test_empty_track(self):
        tracker, _ = make_tracker()
        assert tracker.track(np.empty(0, dtype=np.int64)) == 0

    def test_has_work(self):
        tracker, _ = make_tracker()
        assert not tracker.any_work()
        tracker.track(np.array([3]))
        assert tracker.any_work()
        assert tracker.has_work(3)
        assert not tracker.has_work(0)


class TestCollect:
    def test_collect_returns_active_blocks(self):
        tracker, layout = make_tracker()
        tracker.track(np.array([0, 8, 16]))  # PE 0, blocks 0 and 1
        sbs = tracker.select_superblocks(0, 4)
        out = tracker.collect(0, sbs)
        assert set(out.active_blocks.tolist()) == {0, 1}
        assert not tracker.any_work()
        tracker.check_invariants()

    def test_wasteful_blocks_counted(self):
        tracker, layout = make_tracker(superblock_dim=8)
        # Activate only the last block of PE 0's first superblock: the
        # scan reads chunk-aligned blocks up to it.
        vertex = layout.globals_of(0, np.array([7 * 2]))[0]
        tracker.track(np.array([vertex]))
        sbs = tracker.select_superblocks(0, 1)
        out = tracker.collect(0, sbs)
        assert out.blocks_read >= 8 or out.blocks_read == tracker.chunk_blocks
        assert out.wasteful_blocks == out.blocks_read - 1

    def test_chunk_alignment_limits_reads(self):
        tracker, layout = make_tracker(superblock_dim=64)
        # Active block 0 only: one 16-block chunk is read, not all 64.
        tracker.track(np.array([0]))
        out = tracker.collect(0, tracker.select_superblocks(0, 1))
        assert out.blocks_read == tracker.chunk_blocks
        assert out.wasteful_blocks == tracker.chunk_blocks - 1

    def test_collect_empty_selection(self):
        tracker, _ = make_tracker()
        out = tracker.collect(0, np.empty(0, dtype=np.int64))
        assert out.blocks_read == 0


class TestSelection:
    def test_rotation_resumes(self):
        tracker, layout = make_tracker(num_vertices=4096, superblock_dim=4)
        # Activate one vertex in several superblocks of PE 0.
        locals_ = np.array([0, 64, 128, 192])  # blocks 0,32,64,96 -> sbs 0,8,16,24
        vertices = layout.globals_of(0, locals_)
        tracker.track(vertices)
        first = tracker.select_superblocks(0, 2)
        second = tracker.select_superblocks(0, 2)
        assert set(first.tolist()) | set(second.tolist()) == {0, 8, 16, 24}
        assert set(first.tolist()).isdisjoint(second.tolist())

    def test_selection_caps_count(self):
        tracker, layout = make_tracker(num_vertices=4096, superblock_dim=4)
        vertices = layout.globals_of(0, np.arange(0, 256, 8))
        tracker.track(vertices)
        assert tracker.select_superblocks(0, 3).shape[0] == 3

    def test_empty_selection(self):
        tracker, _ = make_tracker()
        assert tracker.select_superblocks(0, 4).shape[0] == 0


class TestPropertyBased:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["track", "collect"]),
                st.lists(st.integers(0, 511), min_size=0, max_size=20),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_random_ops(self, ops):
        tracker, layout = make_tracker(num_vertices=512, superblock_dim=4)
        active = np.zeros(512, dtype=bool)
        for op, vertices in ops:
            if op == "track":
                ids = np.unique(np.asarray(vertices, dtype=np.int64))
                tracker.track(ids)
                active[ids] = True
            else:
                pe = int(vertices[0]) % 8 if vertices else 0
                sbs = tracker.select_superblocks(pe, 2)
                out = tracker.collect(pe, sbs)
                collected = layout.block_vertices(pe, out.active_blocks).ravel()
                collected = collected[collected >= 0]
                active[collected] = False
            tracker.check_invariants()
        # Counters account for exactly the blocks holding active vertices.
        expected_blocks = set()
        for v in np.flatnonzero(active):
            pe = int(layout.pe_of(np.array([v]))[0])
            block = int(layout.block_of(np.array([v]))[0])
            expected_blocks.add((pe, block))
        assert tracker.counters.sum() == len(expected_blocks)


@st.composite
def twin_schedules(draw):
    """A tracker geometry and a random schedule of track/scan steps.

    The geometries end each PE's block range inside a superblock, so the
    last superblock is partial and the padded bitmap has padding blocks.
    """
    num_vertices = draw(st.sampled_from([8 * 2 * 13, 8 * 2 * 21 - 5, 8 * 2 * 9]))
    dim = draw(st.sampled_from([2, 4, 8]))
    chunk = draw(st.sampled_from([1, 2, 3, 16]))
    placement_seed = draw(st.integers(0, 3))
    steps = []
    for _ in range(draw(st.integers(1, 25))):
        if draw(st.booleans()):
            steps.append(("track", draw(st.lists(
                st.integers(0, num_vertices - 1), max_size=40))))
        else:
            pes = sorted(draw(st.sets(st.integers(0, 7), min_size=1)))
            counts = [draw(st.integers(1, 4)) for _ in pes]
            steps.append(("scan", (pes, counts)))
    return num_vertices, dim, chunk, placement_seed, steps


class TestBatchedAgainstPerPE:
    """``select_superblocks_many``/``collect_many`` equal the per-PE calls.

    Both engines share :meth:`TrackerModule.track`, and only the
    vectorized engine scans through the batched calls, so engine parity
    checks neither directly.  Twin trackers run one schedule, one through
    the batched calls and one PE by PE, and a set of (PE, block) pairs
    models what ``track`` must count.
    """

    @given(twin_schedules())
    @settings(max_examples=120, deadline=None)
    def test_twins_agree_after_every_step(self, schedule):
        num_vertices, dim, chunk, seed, steps = schedule
        cfg = scaled_config(num_gpns=1, scale=1 / 1024).with_updates(
            superblock_dim=dim, prefetch_chunk_blocks=chunk
        )
        placement = random_placement(num_vertices, cfg.num_pes, seed=seed)
        layout = VertexMemoryLayout(placement, cfg)
        assert layout.blocks_per_pe % dim  # a partial last superblock
        batched, per_pe = TrackerModule(layout), TrackerModule(layout)
        model = set()
        for op, arg in steps:
            if op == "track":
                vertices = np.asarray(arg, dtype=np.int64)
                pairs = {
                    (int(placement.owner[v]),
                     int(placement.local_id[v]) // layout.vertices_per_block)
                    for v in arg
                }
                fresh = len(pairs - model)
                model |= pairs
                assert batched.track(vertices) == fresh
                assert per_pe.track(vertices) == fresh
            else:
                pes, counts = (np.asarray(a, dtype=np.int64) for a in arg)
                rows, superblocks = batched.select_superblocks_many(pes, counts)
                got = batched.collect_many(pes, rows, superblocks)
                for row, (pe, count) in enumerate(zip(pes, counts)):
                    chosen = per_pe.select_superblocks(int(pe), int(count))
                    want = per_pe.collect(int(pe), chosen)
                    assert superblocks[rows == row].tolist() == chosen.tolist()
                    blocks = got.active_blocks[got.active_rows == row]
                    assert blocks.tolist() == want.active_blocks.tolist()
                    assert got.blocks_read[row] == want.blocks_read
                    assert got.wasteful_blocks[row] == want.wasteful_blocks
                    model -= {(int(pe), int(b)) for b in blocks}
            for tracker in (batched, per_pe):
                tracker.check_invariants()
                counted = {tuple(p) for p in np.argwhere(tracker.block_counted).tolist()}
                assert counted == model
            assert np.array_equal(batched.counters, per_pe.counters)
            assert np.array_equal(batched.block_counted, per_pe.block_counted)
            assert np.array_equal(batched._cursor, per_pe._cursor)
            assert batched.prefetch_hits == per_pe.prefetch_hits
            assert batched.prefetch_misses == per_pe.prefetch_misses
