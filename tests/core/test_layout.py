"""Vertex memory layout: PE/block/superblock address arithmetic."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.core.layout import VertexMemoryLayout
from repro.graph.partition import interleave_placement, random_placement
from repro.sim.config import scaled_config


@pytest.fixture
def layout():
    cfg = scaled_config(num_gpns=1, scale=1 / 1024)
    placement = interleave_placement(100, cfg.num_pes)
    return VertexMemoryLayout(placement, cfg)


class TestGeometry:
    def test_blocks_cover_largest_shard(self, layout):
        # 100 vertices over 8 PEs: 13 max per PE, 2 vertices per block.
        assert layout.blocks_per_pe == 7
        assert layout.superblocks_per_pe == 1

    def test_block_of(self, layout):
        vertices = np.array([0, 8, 16])  # locals 0, 1, 2 on PE 0
        assert list(layout.block_of(vertices)) == [0, 0, 1]

    def test_superblock_of_large(self):
        cfg = scaled_config(num_gpns=1, scale=1 / 64)
        placement = interleave_placement(cfg.num_pes * 600, cfg.num_pes)
        layout = VertexMemoryLayout(placement, cfg)
        v = placement.pe_vertices(0)[512]  # local id 512 -> block 256 -> sb 2
        assert layout.superblock_of(np.array([v]))[0] == 2

    def test_pe_of_matches_placement(self, layout):
        vertices = np.arange(100)
        assert np.array_equal(
            layout.pe_of(vertices), layout.placement.owner[vertices]
        )


class TestGlobalLookup:
    def test_globals_roundtrip(self, layout):
        for pe in range(layout.config.num_pes):
            expected = layout.placement.pe_vertices(pe)
            got = layout.globals_of(pe, np.arange(expected.shape[0]))
            assert np.array_equal(got, expected)

    def test_padding_is_minus_one(self, layout):
        count = int(layout.vertices_on_pe[3])
        out = layout.globals_of(3, np.array([count, count + 5]))
        assert list(out) == [-1, -1]

    def test_block_vertices_shape(self, layout):
        out = layout.block_vertices(0, np.array([0, 1]))
        assert out.shape == (2, layout.vertices_per_block)

    def test_block_vertices_content(self, layout):
        out = layout.block_vertices(0, np.array([0]))
        # PE 0 owns vertices 0, 8, ... -> block 0 holds locals 0 and 1.
        assert list(out[0]) == [0, 8]


class TestRandomPlacement:
    def test_roundtrip_under_random_placement(self):
        cfg = scaled_config(num_gpns=2, scale=1 / 1024)
        placement = random_placement(500, cfg.num_pes, seed=3)
        layout = VertexMemoryLayout(placement, cfg)
        for pe in (0, 7, 15):
            expected = placement.pe_vertices(pe)
            got = layout.globals_of(pe, np.arange(expected.shape[0]))
            assert np.array_equal(got, expected)

    def test_every_vertex_has_unique_slot(self):
        cfg = scaled_config(num_gpns=1, scale=1 / 1024)
        placement = random_placement(333, cfg.num_pes, seed=9)
        layout = VertexMemoryLayout(placement, cfg)
        seen = set()
        for pe in range(cfg.num_pes):
            for v in layout.placement.pe_vertices(pe):
                key = (pe, int(layout.local_of(np.array([v]))[0]))
                assert key not in seen
                seen.add(key)
        assert len(seen) == 333


class TestValidation:
    def test_pe_count_mismatch(self):
        cfg = scaled_config(num_gpns=1)
        placement = interleave_placement(10, 4)  # 4 != 8 PEs
        with pytest.raises(ConfigError):
            VertexMemoryLayout(placement, cfg)


class TestBatchTables:
    """The per-run tables behind the batch lookups equal the per-PE paths."""

    @pytest.mark.parametrize("num_vertices, seed", [(333, 9), (500, 3), (97, 1)])
    def test_block_vertices_many_stacks_block_vertices(self, num_vertices, seed):
        cfg = scaled_config(num_gpns=2, scale=1 / 1024)
        placement = random_placement(num_vertices, cfg.num_pes, seed=seed)
        layout = VertexMemoryLayout(placement, cfg)
        blocks = np.arange(layout.blocks_per_pe)
        stacked = np.concatenate(
            [layout.block_vertices(pe, blocks) for pe in range(cfg.num_pes)]
        )
        many = layout.block_vertices_many(
            np.repeat(np.arange(cfg.num_pes), blocks.shape[0]),
            np.tile(blocks, cfg.num_pes),
        )
        assert (stacked == -1).any()  # padding slots are compared too
        assert many.dtype == stacked.dtype
        assert np.array_equal(many, stacked)
        rng = np.random.default_rng(seed)
        pes = rng.integers(0, cfg.num_pes, size=50)
        picks = rng.integers(0, layout.blocks_per_pe, size=50)
        assert np.array_equal(
            layout.block_vertices_many(pes, picks),
            stacked[pes * layout.blocks_per_pe + picks],
        )

    def test_block_of_is_local_block(self):
        cfg = scaled_config(num_gpns=2, scale=1 / 1024)
        placement = random_placement(500, cfg.num_pes, seed=3)
        layout = VertexMemoryLayout(placement, cfg)
        vertices = np.arange(500)
        assert np.array_equal(
            layout.block_of(vertices),
            placement.local_id // layout.vertices_per_block,
        )
