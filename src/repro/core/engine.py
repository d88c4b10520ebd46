"""The NOVA execution engine: a decoupled MPU / VMU / MGU pipeline.

Functional semantics are exact (the vertex program operates on coherent
numpy state); timing is cycle-approximate through variable-duration
quanta (DESIGN.md section 4).  Within each quantum:

1. **MPU phase** -- every PE pops a bounded batch of messages from its
   inbox, resolves vertex accesses through its direct-mapped cache
   (misses and dirty write-backs charge the PE's HBM channel), applies
   the workload's reduce, and reports newly activated vertices to the
   tracker.
2. **VMU phase** -- every PE whose active buffer is running low selects
   non-empty superblocks in cursor rotation and scans them, charging
   useful reads for active blocks and wasteful reads for the inactive
   blocks covered by the scan (Fig 10).  Collected vertices enter the
   active buffer with snapshotted property values.
3. **MGU phase** -- every PE expands a bounded number of edges from its
   active buffer (partially consuming high-degree vertices), charging
   sequential DDR reads and generating messages routed by the fabric.

The quantum's duration is the slowest resource's service time, floored
by the pipeline latency; messages generated in quantum *t* are delivered
to inboxes at its end and processed from *t+1* on -- which is what gives
spilled vertices their enlarged coalescing window.

Both execution models of the paper are supported: **asynchronous** (all
three phases run every quantum until the machine drains) and **BSP**
(propagation and reduction alternate under a barrier, driven by the
program's ``superstep_end``).

All three phases operate on flat cross-PE arrays, and no phase loops
over PEs: the inboxes, the active buffers and Table I's spill buffers
are each one :class:`repro.core.queues.PooledQueue` holding every PE's
FIFO (the active buffers use its
:class:`~repro.core.queues.PooledPendingWork` subclass), memory
channels are banked (:class:`repro.memory.channel.BandwidthChannelArray`),
and the tracker selects and collects superblocks for every eligible PE
in one pass.  The
per-PE scalar-loop formulation is preserved bit-for-bit in
:mod:`repro.core.engine_scalar`; ``tests/core/test_engine_parity.py``
pins the equivalence.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.graph.csr import CSRGraph
from repro.graph.partition import VertexPlacement, interleave_placement
from repro.core.layout import VertexMemoryLayout
from repro.core.metrics import RunResult
from repro.core.queues import PooledPendingWork, PooledQueue
from repro.core.tracker import TrackerModule
from repro.memory.cache import CacheArray
from repro.memory.channel import BandwidthChannelArray
from repro.network.fabric import (
    Fabric,
    HierarchicalFabric,
    IdealFabric,
    PointToPointFabric,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    MetricsRecorder,
    QuantumObservation,
    timed_call,
)
from repro.sim.config import NovaConfig
from repro.sim.engine import QuantumClock, ResourcePool
from repro.sim.stats import StatGroup
from repro.workloads.base import VertexProgram, expand_edges, unique_ids


def build_fabric(config: NovaConfig) -> Fabric:
    """Instantiate the interconnect named by ``config.fabric_kind``."""
    if config.fabric_kind == "ideal":
        return IdealFabric(config.num_pes)
    if config.fabric_kind == "p2p":
        return PointToPointFabric(config.num_pes, config.link_bandwidth)
    return HierarchicalFabric(
        config.num_gpns,
        config.pes_per_gpn,
        config.link_bandwidth,
        config.port_bandwidth,
    )


def make_fu_pools(
    config: NovaConfig,
) -> Tuple[List[ResourcePool], List[ResourcePool]]:
    """Per-GPN reduce and propagate functional-unit pools (Table II)."""

    def pools(prefix: str, units_per_gpn: int) -> List[ResourcePool]:
        rate = units_per_gpn * config.frequency_hz
        return [
            ResourcePool(f"{prefix}.gpn{g}", rate)
            for g in range(config.num_gpns)
        ]

    return (
        pools("reduce_fu", config.reduce_fus_per_gpn),
        pools("prop_fu", config.propagate_fus_per_gpn),
    )


class NovaEngine:
    """One end-to-end NOVA execution of a vertex program on a graph."""

    def __init__(
        self,
        config: NovaConfig,
        graph: CSRGraph,
        program: VertexProgram,
        placement: Optional[VertexPlacement] = None,
        source: Optional[int] = None,
        max_quanta: int = 5_000_000,
        recorder: Optional[MetricsRecorder] = None,
    ) -> None:
        program.check_graph(graph)
        self.config = config
        self.graph = graph
        self.program = program
        self.source = source
        self.max_quanta = max_quanta
        if placement is None:
            placement = interleave_placement(graph.num_vertices, config.num_pes)
        self.layout = VertexMemoryLayout(placement, config)

        shard_bytes = self.layout.blocks_per_pe * config.block_bytes
        if shard_bytes > config.vertex_channel.capacity_bytes:
            raise ConfigError(
                f"per-PE vertex shard ({shard_bytes} B) exceeds the HBM "
                f"channel capacity ({config.vertex_channel.capacity_bytes} B);"
                " add GPNs or scale the graph"
            )

        p = config.num_pes
        self.state = program.create_state(graph, source)
        self.active_now = np.zeros(graph.num_vertices, dtype=bool)
        self.tracker = TrackerModule(self.layout)
        self.inbox_pool = PooledQueue(p, (np.int64, np.float64))
        self.pending_pool = PooledPendingWork(p)
        #: Table I's alternative spilling method: per-PE off-chip FIFOs
        #: of (vertex, value-at-spill) copies.  Only used in "fifo" mode.
        self.spill_fifos = PooledQueue(p, (np.int64, np.float64))
        #: FIFO entry: value copy + explicit vertex address (Table I).
        self._fifo_entry_bytes = config.vertex_bytes + 8
        self.cache = CacheArray(
            p, config.cache_bytes_per_pe, config.cache_line_bytes
        )
        # Per-run address tables: each vertex's owner PE as a narrow
        # sort key, and its global cache set (CacheArray.set_index).
        owner = self.layout.placement.owner
        self._owner_key = owner.astype(np.min_scalar_type(p - 1))
        self._vertex_set = self.cache.set_index(
            owner, self.layout.block_of(np.arange(graph.num_vertices))
        )
        self.hbm = BandwidthChannelArray(config.vertex_channel, p)
        self.ddr = BandwidthChannelArray(config.edge_pool, config.num_gpns)
        self.reduce_pool, self.propagate_pool = make_fu_pools(config)
        self.fabric = build_fabric(config)
        self.clock = QuantumClock(
            config.frequency_hz,
            config.latency_floor_s + self.fabric.latency_s,
        )
        self.stats = StatGroup("nova")

        # Derived engine knobs.
        self._supply_target = config.active_buffer_entries * config.vertices_per_block
        scan_bytes_budget = (
            config.vertex_channel.random_bandwidth
            * config.latency_floor_s
            * config.quantum_overlap
        )
        sb_bytes = config.superblock_dim * config.block_bytes
        self._max_scans = max(1, int(scan_bytes_budget // sb_bytes))
        self._pe_ids = np.arange(p, dtype=np.int64)
        self._gpn_of_pe = self._pe_ids // config.pes_per_gpn
        self._vmu_budget = max(
            config.vertices_per_block,
            int(
                config.vmu_supply_rate_per_pe
                * config.latency_floor_s
                * config.quantum_overlap
            ),
        )

        #: Metrics recorder; the null default keeps the per-quantum cost
        #: at a single branch (see repro.obs).
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self._obs_on = self.obs.enabled

        # Counters (mirrored into stats at the end).
        self._edges_traversed = 0
        self._messages_sent = 0
        self._messages_processed = 0
        self._useful_messages = 0
        self._coalesced = 0
        self._activations = 0
        #: Per MGU call: (dests, values, owner keys, messages per PE).
        self._outbox: List[Tuple[np.ndarray, ...]] = []

    # ------------------------------------------------------------------
    # Pipeline phases
    # ------------------------------------------------------------------

    def _inject_active(self, vertices: np.ndarray) -> None:
        """Register newly active vertices with the spill mechanism.

        Tracker mode: set the active flag and count the block (idempotent
        per block -- Table I's overwrite-in-vertex-set method).  FIFO
        mode: append a (vertex, value) copy to the owner PE's off-chip
        buffer -- two writes per spill, duplicate copies allowed, value
        frozen at spill time.
        """
        if vertices.shape[0] == 0:
            return
        if self.config.vmu_mode == "fifo":
            self._spill_to_fifo(vertices)
            return
        fresh = vertices[~self.active_now[vertices]]
        self.active_now[fresh] = True
        self.tracker.track(fresh)
        self._activations += int(fresh.shape[0])

    def _spill_to_fifo(self, vertices: np.ndarray) -> None:
        values = self.program.snapshot(self.state, vertices)
        owner = self._owner_key[vertices]
        order = np.argsort(owner, kind="stable")
        counts = np.bincount(owner, minlength=self.config.num_pes)
        self.spill_fifos.push_sorted(counts, vertices[order], values[order])
        # Two writes per spill: the vertex set plus the buffer copy.
        self.hbm.charge_write_many(
            self._pe_ids, counts * self._fifo_entry_bytes, sequential=True
        )
        self._activations += int(vertices.shape[0])

    def _mpu_phase(self) -> None:
        """Pop one flat message batch across PEs, reduce, track activations."""
        config = self.config
        counts, dest, values = self.inbox_pool.pop_all(config.mpu_batch_per_pe)
        if dest.shape[0] == 0:
            return
        self._charge_gpn_pools(self.reduce_pool, counts)
        # Vertex access stream through the per-PE direct-mapped caches.
        cache_out = self.cache.access(
            None,
            self.layout.block_of(dest),
            writes=True,
            sets=self._vertex_set[dest],
        )
        line = config.cache_line_bytes
        self.hbm.charge_read_many(
            self._pe_ids, cache_out.misses_per_cache * line
        )
        self.hbm.charge_write_many(
            self._pe_ids, cache_out.writebacks_per_cache * line
        )
        # Messages landing on a vertex that is already active-pending are
        # absorbed into the pending propagation -- the paper's coalescing
        # (counted before the reduce mutates activation state).
        self._coalesced += int(np.count_nonzero(self.active_now[dest]))
        outcome = self.program.reduce(self.state, dest, values)
        self._messages_processed += int(dest.shape[0])
        self._useful_messages += outcome.useful_messages
        self._inject_active(outcome.improved)

    def _vmu_phase(self, prop_graph: CSRGraph) -> None:
        """Prefetch active blocks into under-filled active buffers.

        Reduction has priority over propagation (Section I): while a
        PE's reduction pipeline is saturated (its inbox holds a full
        batch or more), the VMU defers prefetching.  Spilled active
        vertices wait in DRAM and keep absorbing updates -- the enlarged
        coalescing window that gives NOVA its work-efficiency edge.
        """
        if self.config.vmu_mode == "fifo":
            self._vmu_phase_fifo(prop_graph)
            return
        config = self.config
        eligible = (
            self.pending_pool.sizes < self._supply_target
        ) & self.tracker.work_mask()
        if config.reduction_priority:
            # Reduction has priority on the vertex channel (Section I):
            # prefetch scans only with the bandwidth the MPU left unused
            # this quantum.  Under reduction load the scans throttle,
            # spilled vertices wait in DRAM, and updates coalesce.
            sb_bytes = config.superblock_dim * config.block_bytes
            quantum_target = config.latency_floor_s * config.quantum_overlap
            leftover = quantum_target - self.hbm.service_times()
            budget = (
                leftover * config.vertex_channel.random_bandwidth // sb_bytes
            ).astype(np.int64)
            scans = np.minimum(self._max_scans, budget)
            eligible &= (leftover > 0) & (scans > 0)
        else:
            scans = np.full(config.num_pes, self._max_scans, dtype=np.int64)
        pes = np.flatnonzero(eligible)
        if pes.shape[0] == 0:
            return
        rows, superblocks = self.tracker.select_superblocks_many(
            pes, scans[pes]
        )
        collected = self.tracker.collect_many(pes, rows, superblocks)
        block_bytes = config.block_bytes
        useful_blocks = collected.blocks_read - collected.wasteful_blocks
        self.hbm.charge_read_many(pes, useful_blocks * block_bytes)
        self.hbm.charge_read_many(
            pes, collected.wasteful_blocks * block_bytes, useful=False
        )
        if collected.active_blocks.shape[0] == 0:
            return
        candidates = self.layout.block_vertices_many(
            pes[collected.active_rows], collected.active_blocks
        )
        vpb = self.layout.vertices_per_block
        flat = candidates.ravel()
        row_flat = np.repeat(collected.active_rows, vpb)
        # Padding slots (-1) index the last vertex; the mask drops them.
        is_active = (flat >= 0) & self.active_now[flat]
        active, act_rows = flat[is_active], row_flat[is_active]
        n_rows = pes.shape[0]
        active_counts = np.bincount(act_rows, minlength=n_rows)
        rows_with_blocks = np.bincount(collected.active_rows, minlength=n_rows)
        if ((rows_with_blocks > 0) & (active_counts == 0)).any():
            raise SimulationError("collected block without active vertex")
        # The active buffer can only absorb what its depth allows per
        # latency window; overflow blocks are dropped and re-tracked
        # (the hardware prefetcher stalls when the buffer is full).
        row_offsets = np.concatenate(([0], np.cumsum(active_counts)[:-1]))
        pos_in_row = np.arange(active.shape[0], dtype=np.int64) - row_offsets[act_rows]
        keep = pos_in_row < self._vmu_budget
        kept, overflow = active[keep], active[~keep]
        if overflow.shape[0]:
            self.tracker.track(overflow)
        self.active_now[kept] = False
        snapshots = self.program.snapshot(self.state, kept)
        starts = prop_graph.row_ptr[kept]
        ends = prop_graph.row_ptr[kept + 1]
        live = ends > starts  # degree-0 vertices propagate nothing
        self.pending_pool.push_sorted(
            np.bincount(pes[act_rows[keep][live]], minlength=config.num_pes),
            kept[live],
            snapshots[live],
            starts[live],
            ends[live],
        )

    def _vmu_phase_fifo(self, prop_graph: CSRGraph) -> None:
        """Table I's off-chip-buffer retrieval: pop spilled copies in order.

        Retrieval is a cheap FIFO read (no superblock search, no wasteful
        reads) but the buffered value snapshots are stale and duplicate
        copies propagate repeatedly -- the trade the tracker design wins.
        """
        target = self._supply_target
        counts, vertices, values = self.spill_fifos.pop_all(
            np.where(self.pending_pool.sizes < target, target, 0)
        )
        if vertices.shape[0] == 0:
            return
        self.hbm.charge_read_many(
            self._pe_ids, counts * self._fifo_entry_bytes, sequential=True
        )
        starts = prop_graph.row_ptr[vertices]
        ends = prop_graph.row_ptr[vertices + 1]
        live = ends > starts
        self.pending_pool.push_sorted(
            np.bincount(
                np.repeat(self._pe_ids, counts)[live],
                minlength=self.config.num_pes,
            ),
            vertices[live],
            values[live],
            starts[live],
            ends[live],
        )

    def _mgu_phase(self, prop_graph: CSRGraph, traffic: np.ndarray) -> None:
        """Expand edges from active buffers and emit messages."""
        config = self.config
        if not self.pending_pool.any():
            return
        counts, vertices, values, starts, ends = self.pending_pool.pop_edges_all(
            config.mgu_batch_edges_per_pe
        )
        if vertices.shape[0] == 0:
            return
        _, dests, weights = expand_edges(prop_graph, vertices, starts, ends)
        nedges = int(dests.shape[0])
        if nedges == 0:
            return
        num_pes = config.num_pes
        degrees = ends - starts
        dst_pe = self._owner_key[dests]
        src_pe = np.repeat(np.repeat(self._pe_ids, counts), degrees)
        pairs = np.bincount(
            src_pe * num_pes + dst_pe,
            minlength=num_pes * num_pes,
        ).reshape(num_pes, num_pes)
        edges_per_pe = pairs.sum(axis=1)
        self.ddr.charge_read_many(
            self._gpn_of_pe, edges_per_pe * config.edge_bytes, sequential=True
        )
        self._charge_gpn_pools(self.propagate_pool, edges_per_pe)
        msg_values = self.program.propagate_values(
            self.state, np.repeat(values, degrees), weights
        )
        self._edges_traversed += nedges
        self._messages_sent += nedges
        traffic += pairs * config.message_bytes
        self._outbox.append((dests, msg_values, dst_pe, pairs.sum(axis=0)))

    def _charge_gpn_pools(
        self, pools: List[ResourcePool], per_pe: np.ndarray
    ) -> None:
        """Charge each GPN's functional-unit pool its PEs' op counts."""
        per_gpn = per_pe.reshape(self.config.num_gpns, -1).sum(axis=1)
        for pool, ops in zip(pools, per_gpn.tolist()):
            pool.charge(ops)

    def _deliver(self) -> None:
        """Move the quantum's generated messages into destination inboxes.

        One stable argsort on the narrow owner key (a radix sort) orders
        the messages PE-major; only the payload columns are gathered.
        """
        if not self._outbox:
            return
        if len(self._outbox) == 1:
            dests, values, dst_pe, counts = self._outbox[0]
        else:
            dests, values, dst_pe = (
                np.concatenate([part[i] for part in self._outbox])
                for i in range(3)
            )
            counts = sum(part[3] for part in self._outbox)
        self._outbox.clear()
        order = np.argsort(dst_pe, kind="stable")
        self.inbox_pool.push_sorted(counts, dests[order], values[order])

    def _close_quantum(self, traffic: np.ndarray) -> None:
        # Each resource's service time, computed once for the quantum.
        hbm = self.hbm.service_times()
        ddr = self.ddr.service_times()
        reduce_fu = [p.quantum_service_time() for p in self.reduce_pool]
        propagate_fu = [p.quantum_service_time() for p in self.propagate_pool]
        fabric = self.fabric.service_time(traffic)
        services = {
            "hbm": float(hbm.max()),
            "ddr": float(ddr.max()),
            "reduce_fu": max(reduce_fu),
            "propagate_fu": max(propagate_fu),
            "fabric": fabric,
        }
        bottleneck = max(services, key=services.get)
        service = services[bottleneck]
        duration = self.clock.advance(service)
        if duration > service:
            bottleneck = "latency"
        if self._obs_on:
            self._observe_quantum(services, duration, bottleneck)
        self.hbm.end_quantum(duration, hbm)
        self.ddr.end_quantum(duration, ddr)
        for pool, pool_service in zip(self.reduce_pool, reduce_fu):
            pool.end_quantum(duration, pool_service)
        for pool, pool_service in zip(self.propagate_pool, propagate_fu):
            pool.end_quantum(duration, pool_service)
        self.fabric.record(traffic, fabric)
        self._deliver()

    def _observe_quantum(
        self, services: dict, duration: float, bottleneck: str
    ) -> None:
        """Feed the metrics recorder (called before resources reset)."""
        self.obs.on_quantum(
            QuantumObservation(
                index=self.clock.quanta - 1,
                duration_seconds=duration,
                bottleneck=bottleneck,
                hbm_util=self.hbm.quantum_utilizations(duration),
                ddr_util=self.ddr.quantum_utilizations(duration),
                reduce_fu_util=np.array(
                    [p.quantum_utilization(duration) for p in self.reduce_pool]
                ),
                propagate_fu_util=np.array(
                    [p.quantum_utilization(duration) for p in self.propagate_pool]
                ),
                fabric_util=services["fabric"] / duration if duration > 0 else 0.0,
                messages_drained=self.inbox_pool.popped,
                coalesced=self._coalesced,
                spilled=self._activations,
                prefetch_hits=self.tracker.prefetch_hits,
                prefetch_misses=self.tracker.prefetch_misses,
                inbox_backlog=self.inbox_pool.total,
                buffer_occupancy=self.pending_pool.total,
                tracked_blocks=int(self.tracker.counters.sum()),
            )
        )

    # ------------------------------------------------------------------
    # Drain conditions
    # ------------------------------------------------------------------

    def _messages_pending(self) -> bool:
        return self.inbox_pool.any()

    def _propagation_pending(self) -> bool:
        return (
            self.tracker.any_work()
            or self.pending_pool.any()
            or self.spill_fifos.any()
        )

    # ------------------------------------------------------------------
    # Execution models
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute to completion in the program's declared mode."""
        if self.program.mode == "bsp":
            self._run_bsp()
        else:
            self._run_async()
        return self._build_result()

    def _run_async(self) -> None:
        prof = self.obs.phase_profiler
        self._inject_active(unique_ids(self.program.initial_active(self.state)))
        while self._messages_pending() or self._propagation_pending():
            self._check_quota()
            prop_graph = self.program.propagation_graph(self.state)
            traffic = np.zeros((self.config.num_pes, self.config.num_pes))
            if prof is not None and prof.should_sample(self.clock.quanta):
                timed_call(prof, "mpu", self._mpu_phase)
                timed_call(prof, "vmu", self._vmu_phase, prop_graph)
                timed_call(prof, "mgu", self._mgu_phase, prop_graph, traffic)
                timed_call(prof, "close", self._close_quantum, traffic)
            else:
                self._mpu_phase()
                self._vmu_phase(prop_graph)
                self._mgu_phase(prop_graph, traffic)
                self._close_quantum(traffic)

    def _run_bsp(self) -> None:
        prof = self.obs.phase_profiler
        supersteps = 0
        active = unique_ids(self.program.initial_active(self.state))
        while active.shape[0]:
            self._inject_active(active)
            # Message generation (red block of Algorithm 1).
            while self._propagation_pending():
                self._check_quota()
                prop_graph = self.program.propagation_graph(self.state)
                traffic = np.zeros((self.config.num_pes, self.config.num_pes))
                if prof is not None and prof.should_sample(self.clock.quanta):
                    timed_call(prof, "vmu", self._vmu_phase, prop_graph)
                    timed_call(prof, "mgu", self._mgu_phase, prop_graph, traffic)
                    timed_call(prof, "close", self._close_quantum, traffic)
                else:
                    self._vmu_phase(prop_graph)
                    self._mgu_phase(prop_graph, traffic)
                    self._close_quantum(traffic)
            # Message processing (blue block), strictly afterwards.
            while self._messages_pending():
                self._check_quota()
                traffic = np.zeros((self.config.num_pes, self.config.num_pes))
                if prof is not None and prof.should_sample(self.clock.quanta):
                    timed_call(prof, "mpu", self._mpu_phase)
                    timed_call(prof, "close", self._close_quantum, traffic)
                else:
                    self._mpu_phase()
                    self._close_quantum(traffic)
            active = unique_ids(self.program.superstep_end(self.state))
            supersteps += 1
        self.stats.set("supersteps", supersteps)

    def _check_quota(self) -> None:
        if self.clock.quanta >= self.max_quanta:
            raise SimulationError(
                f"exceeded {self.max_quanta} quanta; simulation is stuck"
            )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def _build_result(self) -> RunResult:
        config = self.config
        elapsed = self.clock.elapsed_seconds
        hbm_useful = self.hbm.total_useful_read_bytes
        hbm_wasteful = self.hbm.total_wasteful_read_bytes
        hbm_write = self.hbm.total_write_bytes
        ddr_bytes = self.ddr.total_bytes

        # Fig 6 attribution: overfetch time is the mean per-PE time spent
        # reading inactive vertices during superblock scans.
        per_pe_bw = config.vertex_channel.random_bandwidth
        overfetch = hbm_wasteful / config.num_pes / per_pe_bw
        breakdown = {
            "processing": max(0.0, elapsed - overfetch),
            "overfetch": min(elapsed, overfetch),
        }
        traffic = {
            "hbm_useful_read_bytes": hbm_useful,
            "hbm_wasteful_read_bytes": hbm_wasteful,
            "hbm_write_bytes": hbm_write,
            "ddr_bytes": ddr_bytes,
            "network_bytes": self.fabric.total_bytes,
        }
        utilization = {
            "hbm": float(np.mean(self.hbm.utilizations(elapsed))),
            "ddr": float(np.mean(self.ddr.utilizations(elapsed))),
            "fabric": self.fabric.busy_seconds / elapsed if elapsed else 0.0,
            "reduce_fu": float(
                np.mean([p.utilization(elapsed) for p in self.reduce_pool])
            ),
            "propagate_fu": float(
                np.mean([p.utilization(elapsed) for p in self.propagate_pool])
            ),
        }
        stats = self.stats
        stats.set("quanta", self.clock.quanta)
        stats.set("elapsed_seconds", elapsed)
        cache = stats.child("cache")
        cache.set("hits", self.cache.lifetime_hits)
        cache.set("misses", self.cache.lifetime_misses)
        cache.set("writebacks", self.cache.lifetime_writebacks)
        timeline = None
        if self._obs_on:
            self.obs.publish(stats.child("obs"))
            timeline = self.obs.timeline_dict()
        return RunResult(
            workload=self.program.name,
            system="nova",
            num_vertices=self.graph.num_vertices,
            num_edges=self.graph.num_edges,
            result=self.program.result(self.state),
            elapsed_seconds=elapsed,
            quanta=self.clock.quanta,
            edges_traversed=self._edges_traversed,
            messages_sent=self._messages_sent,
            messages_processed=self._messages_processed,
            useful_messages=self._useful_messages,
            redundant_messages=self._messages_processed - self._useful_messages,
            coalesced_messages=self._coalesced,
            activations=self._activations,
            breakdown=breakdown,
            traffic=traffic,
            utilization=utilization,
            stats=stats,
            timeline=timeline,
        )
