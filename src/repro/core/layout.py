"""Vertex memory layout: vertices -> PEs -> blocks -> superblocks.

Each PE stores its vertices densely in its HBM2 channel: local id ``i``
lives at byte offset ``i * vertex_bytes``.  The 32-byte memory atom
(block) therefore holds ``block_bytes / vertex_bytes`` consecutive local
vertices, and ``superblock_dim`` consecutive blocks form the superblock
the tracker module counts over (Section III-D).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.graph.partition import VertexPlacement
from repro.sim.config import NovaConfig


class VertexMemoryLayout:
    """Vectorized address arithmetic over a :class:`VertexPlacement`."""

    def __init__(self, placement: VertexPlacement, config: NovaConfig) -> None:
        if placement.num_pes != config.num_pes:
            raise ConfigError(
                f"placement has {placement.num_pes} PEs but the system has "
                f"{config.num_pes}"
            )
        self.placement = placement
        self.config = config
        self.vertices_per_block = config.vertices_per_block
        self.superblock_dim = config.superblock_dim

        counts = placement.vertices_per_pe()
        self.vertices_on_pe = counts
        #: Blocks needed per PE (sized by the largest shard so every PE's
        #: tracker covers the same address range).
        max_vertices = int(counts.max()) if counts.size else 0
        self.blocks_per_pe = max(
            1, -(-max_vertices // self.vertices_per_block)
        )
        self.superblocks_per_pe = max(
            1, -(-self.blocks_per_pe // self.superblock_dim)
        )

        # local id -> global vertex id, flattened with per-PE offsets.
        order = np.lexsort((placement.local_id, placement.owner))
        self._flat_global = np.arange(placement.num_vertices, dtype=np.int64)[order]
        self._pe_offsets = np.zeros(config.num_pes + 1, dtype=np.int64)
        np.cumsum(counts, out=self._pe_offsets[1:])

        # Per-run address tables for the batch lookups (8 B per vertex
        # each): every vertex's block, and every (PE, local slot)'s
        # vertex with -1 marking the padding slots.
        self._block = placement.local_id // self.vertices_per_block
        owners = placement.owner[self._flat_global]
        slots = np.arange(placement.num_vertices, dtype=np.int64)
        slots -= self._pe_offsets[owners]
        self._slot_vertex = np.full(
            (config.num_pes, self.blocks_per_pe, self.vertices_per_block),
            -1,
            dtype=np.int64,
        )
        self._slot_vertex.reshape(config.num_pes, -1)[owners, slots] = (
            self._flat_global
        )
        #: One row per (PE, block), for whole-row ``take`` gathers.
        self._slot_rows = self._slot_vertex.reshape(-1, self.vertices_per_block)

    # ------------------------------------------------------------------
    # Per-vertex lookups (vectorized)
    # ------------------------------------------------------------------

    def pe_of(self, vertices: np.ndarray) -> np.ndarray:
        return self.placement.owner[vertices]

    def local_of(self, vertices: np.ndarray) -> np.ndarray:
        return self.placement.local_id[vertices]

    def block_of(self, vertices: np.ndarray) -> np.ndarray:
        """Local block index (within the owning PE's channel)."""
        return self._block.take(vertices)

    def superblock_of(self, vertices: np.ndarray) -> np.ndarray:
        return self.block_of(vertices) // self.superblock_dim

    # ------------------------------------------------------------------
    # Per-PE lookups
    # ------------------------------------------------------------------

    def globals_of(self, pe: int, local_ids: np.ndarray) -> np.ndarray:
        """Global vertex ids for dense local ids on one PE.

        Local ids at or past the PE's shard size (padding at the tail of
        the last block) are reported as -1.
        """
        start = self._pe_offsets[pe]
        size = self.vertices_on_pe[pe]
        local_ids = np.asarray(local_ids, dtype=np.int64)
        valid = local_ids < size
        out = np.full(local_ids.shape, -1, dtype=np.int64)
        out[valid] = self._flat_global[start + local_ids[valid]]
        return out

    def block_vertices(self, pe: int, blocks: np.ndarray) -> np.ndarray:
        """Global ids of every vertex slot in ``blocks`` (may include -1).

        Shape: (len(blocks), vertices_per_block).
        """
        blocks = np.asarray(blocks, dtype=np.int64)
        locals_2d = (
            blocks[:, None] * self.vertices_per_block
            + np.arange(self.vertices_per_block, dtype=np.int64)[None, :]
        )
        return self.globals_of(pe, locals_2d.ravel()).reshape(locals_2d.shape)

    # ------------------------------------------------------------------
    # Cross-PE batch lookups (the vectorized engine's hot path)
    # ------------------------------------------------------------------

    def block_vertices_many(self, pes: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """Global ids of every vertex slot in aligned ``(pe, block)`` pairs.

        Shape: (len(blocks), vertices_per_block); -1 marks padding.
        """
        return self._slot_rows.take(pes * self.blocks_per_pe + blocks, axis=0)
