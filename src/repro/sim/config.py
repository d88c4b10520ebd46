"""System configuration (Table II) and the scaled evaluation variant.

:func:`paper_config` reproduces Table II exactly:

====================  =====================================================
# PE                  8 per GPN @ 2 GHz
Spad                  512 KiB cache (64 KiB/PE) + 1 MiB VMU tracker
Vertex memory         1 HBM2 stack / GPN -- 4 GiB, 256 GB/s (1 ch / PE)
Edge memory           4 DDR4 channels / GPN -- 128 GiB, 76.8 GB/s
Functional units      16 reduction + 48 propagation per GPN
PE-PE network         8x8 point-to-point, 1.2 GB/s per link
Inter-GPN network     crossbar, 60 GB/s per port
====================  =====================================================

:func:`scaled_config` shrinks *capacities* (cache, on-chip tracker budget,
memory sizes) by the suite scale factor while keeping *bandwidths* at
paper values, so that capacity-to-footprint ratios -- the quantity that
drives spills and PolyGraph slice counts -- match the paper (DESIGN.md
section 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.memory.spec import MemorySpec, ddr4_pool, hbm2_channel
from repro.units import GB, KiB, MiB

#: Pipeline latency floor: HBM access + NoC hop + DDR stream startup.
DEFAULT_LATENCY_FLOOR_S = 250e-9


@dataclass(frozen=True)
class NovaConfig:
    """Full static configuration of a NOVA system."""

    num_gpns: int = 1
    pes_per_gpn: int = 8
    frequency_hz: float = 2e9

    # On-chip structures (per PE unless noted).
    cache_bytes_per_pe: int = 64 * KiB
    cache_line_bytes: int = 32
    active_buffer_entries: int = 80
    prefetch_chunk_blocks: int = 16

    # Data layout.
    vertex_bytes: int = 16
    edge_bytes: int = 8
    message_bytes: int = 8
    block_bytes: int = 32
    superblock_dim: int = 128

    # Functional units (per GPN, Table II).
    reduce_fus_per_gpn: int = 16
    propagate_fus_per_gpn: int = 48

    # Off-chip memory.
    vertex_channel: MemorySpec = field(default_factory=hbm2_channel)
    edge_pool: MemorySpec = field(default_factory=ddr4_pool)

    # Interconnect.
    fabric_kind: str = "hierarchical"  # "hierarchical" | "p2p" | "ideal"
    link_bandwidth: float = 1.2 * GB
    port_bandwidth: float = 60 * GB

    # Engine knobs.
    latency_floor_s: float = DEFAULT_LATENCY_FLOOR_S
    quantum_overlap: float = 8.0  # batch ~= overlap x latency-floor of work

    # Ablation switches (see DESIGN.md and benchmarks/test_ablations.py).
    #: Active-vertex spilling method: "tracker" is NOVA's overwrite-in-
    #: vertex-set with superblock counters (Table I right column); "fifo"
    #: is the off-chip auxiliary buffer alternative (left column): two
    #: writes per spill, stored value snapshots, no coalescing.
    vmu_mode: str = "tracker"
    #: Reduction-over-propagation bandwidth priority (Section I).  When
    #: disabled, the prefetcher scans at full rate regardless of the
    #: reduction backlog, shrinking the coalescing window.
    reduction_priority: bool = True

    def __post_init__(self) -> None:
        if self.num_gpns <= 0 or self.pes_per_gpn <= 0:
            raise ConfigError("num_gpns and pes_per_gpn must be positive")
        if self.block_bytes % self.vertex_bytes != 0:
            raise ConfigError(
                "block_bytes must be a whole number of vertex records "
                f"({self.block_bytes} % {self.vertex_bytes} != 0)"
            )
        if self.superblock_dim <= 0:
            raise ConfigError("superblock_dim must be positive")
        if self.cache_bytes_per_pe % self.cache_line_bytes != 0:
            raise ConfigError("cache size must be a multiple of the line size")
        if self.fabric_kind not in ("hierarchical", "p2p", "ideal"):
            raise ConfigError(f"unknown fabric kind: {self.fabric_kind}")
        if self.active_buffer_entries <= 0:
            raise ConfigError("active_buffer_entries must be positive")
        if self.quantum_overlap <= 0:
            raise ConfigError("quantum_overlap must be positive")
        if self.vmu_mode not in ("tracker", "fifo"):
            raise ConfigError(f"unknown vmu_mode: {self.vmu_mode}")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def num_pes(self) -> int:
        return self.num_gpns * self.pes_per_gpn

    @property
    def vertices_per_block(self) -> int:
        return self.block_bytes // self.vertex_bytes

    @property
    def superblock_vertices(self) -> int:
        return self.superblock_dim * self.vertices_per_block

    @property
    def reduce_rate_per_pe(self) -> float:
        """Reduce operations per second available to one PE."""
        return self.reduce_fus_per_gpn / self.pes_per_gpn * self.frequency_hz

    @property
    def propagate_rate_per_pe(self) -> float:
        """Edge propagations per second available to one PE."""
        return self.propagate_fus_per_gpn / self.pes_per_gpn * self.frequency_hz

    @property
    def mpu_batch_per_pe(self) -> int:
        """Messages one PE consumes per quantum (covers the latency floor)."""
        return max(
            64,
            int(self.reduce_rate_per_pe * self.latency_floor_s * self.quantum_overlap),
        )

    @property
    def mgu_batch_edges_per_pe(self) -> int:
        """Edge expansions one PE performs per quantum."""
        return max(
            256,
            int(
                self.propagate_rate_per_pe
                * self.latency_floor_s
                * self.quantum_overlap
            ),
        )

    @property
    def vmu_supply_rate_per_pe(self) -> float:
        """Active vertices/second the buffer can stage for the MGU.

        The 80-entry active buffer turns over once per latency floor; a
        deeper buffer stages more vertices per unit time.  Beyond the
        point where this exceeds the propagate FU rate the buffer stops
        being a bottleneck -- the paper's ">80 entries has diminishing
        returns" observation.
        """
        vertices_per_turnover = self.active_buffer_entries * self.vertices_per_block
        return vertices_per_turnover / self.latency_floor_s

    def tracker_num_superblocks(self, vertex_capacity_bytes: int | None = None) -> int:
        """Equation 2: superblocks covering one PE's vertex memory."""
        capacity = (
            self.vertex_channel.capacity_bytes
            if vertex_capacity_bytes is None
            else vertex_capacity_bytes
        )
        return math.ceil(capacity / (self.superblock_dim * self.block_bytes))

    def tracker_capacity_bits(self, vertex_capacity_bytes: int | None = None) -> int:
        """Equation 1: tracker bits = (log2(sb_dim)+1) x num_superblocks."""
        counter_bits = int(math.log2(self.superblock_dim)) + 1
        return counter_bits * self.tracker_num_superblocks(vertex_capacity_bytes)

    def onchip_bytes_per_gpn(self) -> int:
        """Total on-chip memory per GPN: caches + tracker storage."""
        cache = self.cache_bytes_per_pe * self.pes_per_gpn
        tracker_bits = self.tracker_capacity_bits() * self.pes_per_gpn
        return cache + tracker_bits // 8

    def with_updates(self, **kwargs: object) -> "NovaConfig":
        """Return a modified copy (dataclasses.replace wrapper)."""
        return replace(self, **kwargs)


def paper_config(num_gpns: int = 1) -> NovaConfig:
    """Table II configuration at full scale."""
    return NovaConfig(num_gpns=num_gpns)


def scaled_config(num_gpns: int = 1, scale: float = 1.0 / 64.0) -> NovaConfig:
    """Table II with on-chip and off-chip *capacities* scaled down.

    Bandwidths, functional units, and layout constants stay at paper
    values.  The per-PE cache floor is 32 lines so the direct-mapped
    model stays meaningful at extreme scales.
    """
    if scale <= 0 or scale > 1:
        raise ConfigError("scale must be in (0, 1]")
    base = NovaConfig(num_gpns=num_gpns)
    line = base.cache_line_bytes
    cache = max(32 * line, int(base.cache_bytes_per_pe * scale) // line * line)
    return base.with_updates(
        cache_bytes_per_pe=cache,
        vertex_channel=base.vertex_channel.scaled(scale),
        edge_pool=base.edge_pool.scaled(scale),
    )
