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
:class:`~repro.core.queues.PooledPendingWork` subclass), every memory
channel and functional-unit pool is one
:class:`~repro.memory.channel.ResourceLedger` closed once per quantum,
and the tracker selects and collects superblocks for every eligible PE
in one pass.  The per-PE scalar-loop formulation is preserved
bit-for-bit in :mod:`repro.core.engine_scalar`;
``tests/core/test_engine_parity.py`` pins the equivalence.  Per-element
passes gather with ``take`` and select with ``compress``, which numpy
runs faster than fancy and boolean-mask indexing on large batches.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.graph.csr import CSRGraph
from repro.graph.partition import VertexPlacement, interleave_placement
from repro.core.layout import VertexMemoryLayout
from repro.core.metrics import RunResult
from repro.core.queues import PooledPendingWork, PooledQueue
from repro.core.tracker import TrackerModule
from repro.memory.cache import CacheArray
from repro.memory.channel import ResourceLedger
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
from repro.sim.engine import QuantumClock
from repro.sim.stats import StatGroup
from repro.workloads.base import VertexProgram, ragged_arange, unique_ids

#: Bottleneck names in the order a tie resolves: the ledger's classes,
#: then the fabric.
_BOTTLENECKS = ResourceLedger.CLASSES + ("fabric",)


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
        self.ledger = ResourceLedger(
            config.vertex_channel,
            config.edge_pool,
            config.num_gpns,
            config.pes_per_gpn,
            config.reduce_fus_per_gpn * config.frequency_hz,
            config.propagate_fus_per_gpn * config.frequency_hz,
        )
        self.fabric = build_fabric(config)
        #: The fabric's service time for the current quantum's messages.
        self._fabric_seconds = 0.0
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
        self._quantum_target = config.latency_floor_s * config.quantum_overlap
        self._pe_ids = np.arange(p, dtype=np.int64)
        #: Each PE's row offset in the flat (src, dst) pair histogram.
        self._pair_row = self._pe_ids * p
        self._mpu_batch = config.mpu_batch_per_pe
        self._mgu_batch = config.mgu_batch_edges_per_pe
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
        #: The quantum's messages: (dests, values, owner keys, messages
        #: per PE), or None before the MGU emits any.
        self._outbox: Optional[tuple] = None

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
        fresh = vertices.compress(~self.active_now.take(vertices))
        self.active_now[fresh] = True
        self.tracker.track(fresh)
        self._activations += int(fresh.shape[0])

    def _spill_to_fifo(self, vertices: np.ndarray) -> None:
        values = self.program.snapshot(self.state, vertices)
        owner = self._owner_key.take(vertices)
        order = owner.argsort(kind="stable")
        counts = np.bincount(owner, minlength=self.config.num_pes)
        self.spill_fifos.push_sorted(
            counts, vertices.take(order), values.take(order)
        )
        # Two writes per spill: the vertex set plus the buffer copy.
        nbytes = counts * self._fifo_entry_bytes
        self.ledger.charge(
            ResourceLedger.HBM, self._pe_ids, nbytes, write=True, sequential=True
        )
        self._activations += int(vertices.shape[0])

    def _mpu_phase(self) -> None:
        """Pop one flat message batch across PEs, reduce, track activations."""
        counts, dest, values = self.inbox_pool.pop_all(self._mpu_batch)
        if dest.shape[0] == 0:
            return
        ledger = self.ledger
        ledger.charge_ops(ledger.REDUCE, counts)
        # Vertex access stream through the per-PE direct-mapped caches.
        cache_out = self.cache.access(
            None,
            self.layout.block_of(dest),
            writes=True,
            sets=self._vertex_set.take(dest),
        )
        line = self.config.cache_line_bytes
        ledger.charge(ledger.HBM, self._pe_ids, cache_out.misses_per_cache * line)
        writebacks = cache_out.writebacks_per_cache * line
        ledger.charge(ledger.HBM, self._pe_ids, writebacks, write=True)
        # Messages landing on a vertex that is already active-pending are
        # absorbed into the pending propagation -- the paper's coalescing
        # (counted before the reduce mutates activation state).
        self._coalesced += int(np.count_nonzero(self.active_now.take(dest)))
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
        if not self.tracker.tracked_blocks:
            return
        config = self.config
        ledger = self.ledger
        eligible = (
            self.pending_pool.sizes < self._supply_target
        ) & self.tracker.work_mask()
        if config.reduction_priority:
            # Reduction has priority on the vertex channel (Section I):
            # prefetch scans only with the bandwidth the MPU left unused
            # this quantum.  Under reduction load the scans throttle,
            # spilled vertices wait in DRAM, and updates coalesce.
            sb_bytes = config.superblock_dim * config.block_bytes
            leftover = self._quantum_target - ledger.hbm_service_times()
            budget = (
                leftover * config.vertex_channel.random_bandwidth // sb_bytes
            ).astype(np.int64)
            scans = np.minimum(self._max_scans, budget)
            eligible &= (leftover > 0) & (scans > 0)
        else:
            scans = np.full(config.num_pes, self._max_scans, dtype=np.int64)
        pes = eligible.nonzero()[0]
        if pes.shape[0] == 0:
            return
        rows, superblocks = self.tracker.select_superblocks_many(
            pes, scans[pes]
        )
        collected = self.tracker.collect_many(pes, rows, superblocks)
        block_bytes = config.block_bytes
        useful_blocks = collected.blocks_read - collected.wasteful_blocks
        ledger.charge(ledger.HBM, pes, useful_blocks * block_bytes)
        wasteful = collected.wasteful_blocks * block_bytes
        ledger.charge(ledger.HBM, pes, wasteful, useful=False)
        block_rows = collected.active_rows
        if block_rows.shape[0] == 0:
            return
        candidates = self.layout.block_vertices_many(
            pes[block_rows], collected.active_blocks
        )
        flat = candidates.ravel()
        # Padding slots (-1) index the last vertex; the mask drops them.
        is_active = (flat >= 0) & self.active_now.take(flat)
        active = flat.compress(is_active)
        act_rows = block_rows.repeat(self.layout.vertices_per_block).compress(
            is_active
        )
        active_counts = np.bincount(act_rows, minlength=pes.shape[0])
        if not active_counts[block_rows].all():
            raise SimulationError("collected block without active vertex")
        # The active buffer can only absorb what its depth allows per
        # latency window; overflow blocks are dropped and re-tracked
        # (the hardware prefetcher stalls when the buffer is full).
        if np.maximum.reduce(active_counts) > self._vmu_budget:
            row_starts = active_counts.cumsum() - active_counts
            keep = (
                np.arange(active.shape[0]) - row_starts.take(act_rows)
                < self._vmu_budget
            )
            self.tracker.track(active.compress(~keep))
            active, act_rows = active.compress(keep), act_rows.compress(keep)
        self.active_now[active] = False
        snapshots = self.program.snapshot(self.state, active)
        starts = prop_graph.row_ptr.take(active)
        ends = prop_graph.row_ptr.take(active + 1)
        live = ends > starts  # degree-0 vertices propagate nothing
        self.pending_pool.push_sorted(
            np.bincount(pes.take(act_rows.compress(live)), minlength=config.num_pes),
            active.compress(live),
            snapshots.compress(live),
            starts.compress(live),
            ends.compress(live),
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
        nbytes = counts * self._fifo_entry_bytes
        self.ledger.charge(ResourceLedger.HBM, self._pe_ids, nbytes, sequential=True)
        starts = prop_graph.row_ptr.take(vertices)
        ends = prop_graph.row_ptr.take(vertices + 1)
        live = ends > starts
        self.pending_pool.push_sorted(
            np.bincount(
                self._pe_ids.repeat(counts).compress(live),
                minlength=self.config.num_pes,
            ),
            vertices.compress(live),
            values.compress(live),
            starts.compress(live),
            ends.compress(live),
        )

    def _mgu_phase(self, prop_graph: CSRGraph) -> None:
        """Expand edges from active buffers and emit messages."""
        if not self.pending_pool.total:
            return
        counts, _, values, starts, ends = self.pending_pool.pop_edges_all(
            self._mgu_batch
        )
        # No range is negative: the push refused end < start, and a split
        # leaves both parts of a range non-empty.
        degrees = ends - starts
        nedges = int(np.add.reduce(degrees))
        if nedges == 0:
            return
        offsets = ragged_arange(starts, degrees, nedges)
        dests = prop_graph.col_idx.take(offsets)
        weights = (
            None
            if prop_graph.weights is None
            else prop_graph.weights.take(offsets)
        )
        config = self.config
        num_pes = config.num_pes
        dst_pe = self._owner_key.take(dests)
        pairs = np.bincount(
            self._pair_row.repeat(counts).repeat(degrees) + dst_pe,
            minlength=num_pes * num_pes,
        ).reshape(num_pes, num_pes)
        edges_per_pe = np.add.reduce(pairs, axis=1)
        ledger = self.ledger
        nbytes = edges_per_pe * config.edge_bytes
        ledger.charge(ledger.DDR, self._pe_ids, nbytes, sequential=True)
        ledger.charge_ops(ledger.PROPAGATE, edges_per_pe)
        self._fabric_seconds = self.fabric.record(pairs * config.message_bytes)
        msg_values = self.program.propagate_values(
            self.state, values.repeat(degrees), weights
        )
        self._edges_traversed += nedges
        self._messages_sent += nedges
        self._outbox = (dests, msg_values, dst_pe, np.add.reduce(pairs))

    def _deliver(self) -> None:
        """Move the quantum's generated messages into destination inboxes.

        One stable argsort on the narrow owner key (a radix sort) orders
        the messages PE-major; only the payload columns are gathered.
        """
        if self._outbox is None:
            return
        dests, values, dst_pe, counts = self._outbox
        self._outbox = None
        order = dst_pe.argsort(kind="stable")
        self.inbox_pool.push_sorted(counts, dests.take(order), values.take(order))

    def _close_quantum(self) -> None:
        # Each unit's service time, computed once for the quantum; the
        # slowest class (first in tie order) sets the duration.
        ledger = self.ledger
        service = ledger.service_times()
        slowest = ledger.class_maxima(service)
        slowest.append(self._fabric_seconds)
        longest = max(slowest)
        duration = self.clock.advance(longest)
        bottleneck = _BOTTLENECKS[slowest.index(longest)]
        if duration > longest:
            bottleneck = "latency"
        if self._obs_on:
            self._observe_quantum(service, duration, bottleneck)
        ledger.end_quantum(duration, service)
        self._fabric_seconds = 0.0
        self._deliver()

    def _observe_quantum(
        self, service: np.ndarray, duration: float, bottleneck: str
    ) -> None:
        """Feed the metrics recorder (called before resources reset)."""
        positive = duration > 0
        util = service / duration if positive else np.zeros(service.shape[0])
        fabric_util = self._fabric_seconds / duration if positive else 0.0
        hbm, ddr, reduce_fu, propagate_fu = np.split(
            util, self.ledger.class_starts[1:]
        )
        self.obs.on_quantum(
            QuantumObservation(
                index=self.clock.quanta - 1,
                duration_seconds=duration,
                bottleneck=bottleneck,
                hbm_util=hbm,
                ddr_util=ddr,
                reduce_fu_util=reduce_fu,
                propagate_fu_util=propagate_fu,
                fabric_util=fabric_util,
                messages_drained=self.inbox_pool.popped,
                coalesced=self._coalesced,
                spilled=self._activations,
                prefetch_hits=self.tracker.prefetch_hits,
                prefetch_misses=self.tracker.prefetch_misses,
                inbox_backlog=self.inbox_pool.total,
                buffer_occupancy=self.pending_pool.total,
                tracked_blocks=self.tracker.tracked_blocks,
            )
        )

    # ------------------------------------------------------------------
    # Drain conditions
    # ------------------------------------------------------------------

    def _propagation_pending(self) -> bool:
        return bool(
            self.tracker.tracked_blocks
            or self.pending_pool.total
            or self.spill_fifos.total
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
        while self.inbox_pool.total or self._propagation_pending():
            self._check_quota()
            prop_graph = self.program.propagation_graph(self.state)
            if prof is not None and prof.should_sample(self.clock.quanta):
                timed_call(prof, "mpu", self._mpu_phase)
                timed_call(prof, "vmu", self._vmu_phase, prop_graph)
                timed_call(prof, "mgu", self._mgu_phase, prop_graph)
                timed_call(prof, "close", self._close_quantum)
            else:
                self._mpu_phase()
                self._vmu_phase(prop_graph)
                self._mgu_phase(prop_graph)
                self._close_quantum()

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
                if prof is not None and prof.should_sample(self.clock.quanta):
                    timed_call(prof, "vmu", self._vmu_phase, prop_graph)
                    timed_call(prof, "mgu", self._mgu_phase, prop_graph)
                    timed_call(prof, "close", self._close_quantum)
                else:
                    self._vmu_phase(prop_graph)
                    self._mgu_phase(prop_graph)
                    self._close_quantum()
            # Message processing (blue block), strictly afterwards.
            while self.inbox_pool.total:
                self._check_quota()
                if prof is not None and prof.should_sample(self.clock.quanta):
                    timed_call(prof, "mpu", self._mpu_phase)
                    timed_call(prof, "close", self._close_quantum)
                else:
                    self._mpu_phase()
                    self._close_quantum()
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
        ledger = self.ledger
        hbm_useful, hbm_wasteful, hbm_write = (
            ledger.totals(ledger.HBM).sum(axis=1).tolist()
        )
        ddr_bytes = int(ledger.totals(ledger.DDR).sum())

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
        hbm, ddr, reduce_fu, propagate_fu = (
            float(np.mean(part))
            for part in np.split(
                ledger.utilizations(elapsed), ledger.class_starts[1:]
            )
        )
        utilization = {
            "hbm": hbm,
            "ddr": ddr,
            "fabric": self.fabric.busy_seconds / elapsed if elapsed else 0.0,
            "reduce_fu": reduce_fu,
            "propagate_fu": propagate_fu,
        }
        stats = self.stats
        stats.set("quanta", self.clock.quanta)
        stats.set("elapsed_seconds", elapsed)
        cache = stats.child("cache")
        cache.set("hits", self.cache.lifetime_hits)
        cache.set("misses", self.cache.lifetime_misses)
        cache.set("writebacks", self.cache.lifetime_writebacks)
        timeline = self.obs.timeline_dict() if self._obs_on else None
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
