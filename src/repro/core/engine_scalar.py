"""The seed scalar-loop NOVA engine, kept as the golden reference.

This is the original per-PE-loop implementation of the decoupled
MPU / VMU / MGU pipeline, preserved verbatim when the hot path in
:mod:`repro.core.engine` was vectorized across PEs.  It is the golden
reference: ``tests/core/test_engine_parity.py`` runs both engines on
the same inputs, from 1 to 8 GPNs, and asserts bit-identical results
(same ``elapsed_seconds``, message counters, and vertex state), and
every e2ebench run checks the same parity on all five workloads before
it measures anything -- the vectorized engine is an optimization, not
a semantic change.  Its last committed speed measurement against this
engine (commit 450beb9, 64 PEs) was 2.36-2.59x the quanta per second.

See :mod:`repro.core.engine` for the pipeline documentation; the two
files implement the same model.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.graph.csr import CSRGraph
from repro.graph.partition import VertexPlacement, interleave_placement
from repro.core.engine import build_fabric
from repro.core.layout import VertexMemoryLayout
from repro.core.metrics import RunResult
from repro.core.queues import MessageQueue, PendingWork
from repro.core.tracker import TrackerModule
from repro.memory.cache import CacheArray
from repro.memory.channel import BandwidthChannel
from repro.obs.recorder import (
    NULL_RECORDER,
    MetricsRecorder,
    QuantumObservation,
    timed_call,
)
from repro.sim.config import NovaConfig
from repro.sim.engine import QuantumClock, ResourcePool
from repro.sim.stats import StatGroup
from repro.workloads.base import VertexProgram, expand_edges


def make_fu_pools(
    config: NovaConfig,
) -> Tuple[List[ResourcePool], List[ResourcePool]]:
    """Per-GPN reduce and propagate functional-unit pools (Table II)."""

    def pools(prefix: str, units_per_gpn: int) -> List[ResourcePool]:
        rate = units_per_gpn * config.frequency_hz
        return [ResourcePool(f"{prefix}.gpn{g}", rate) for g in range(config.num_gpns)]

    return (
        pools("reduce_fu", config.reduce_fus_per_gpn),
        pools("prop_fu", config.propagate_fus_per_gpn),
    )


class ScalarNovaEngine:
    """One end-to-end NOVA execution, per-PE scalar loops (seed semantics)."""

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
        self.inboxes = [MessageQueue() for _ in range(p)]
        self.pending = [PendingWork() for _ in range(p)]
        #: Table I's alternative spilling method: per-PE off-chip FIFOs
        #: of (vertex, value-at-spill) copies.  Only used in "fifo" mode.
        self.spill_fifos = [MessageQueue() for _ in range(p)]
        #: FIFO entry: value copy + explicit vertex address (Table I).
        self._fifo_entry_bytes = config.vertex_bytes + 8
        self.cache = CacheArray(
            p, config.cache_bytes_per_pe, config.cache_line_bytes
        )
        self.hbm = [BandwidthChannel(config.vertex_channel) for _ in range(p)]
        self.ddr = [BandwidthChannel(config.edge_pool) for _ in range(config.num_gpns)]
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
        self._outbox: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    # ------------------------------------------------------------------
    # Pipeline phases
    # ------------------------------------------------------------------

    def _gpn_of(self, pe: int) -> int:
        return pe // self.config.pes_per_gpn

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
        pes = self.layout.pe_of(vertices)
        order = np.argsort(pes, kind="stable")
        vertices, values, pes = vertices[order], values[order], pes[order]
        boundaries = np.flatnonzero(np.diff(pes)) + 1
        for segment in np.split(np.arange(vertices.shape[0]), boundaries):
            if segment.shape[0] == 0:
                continue
            pe = int(pes[segment[0]])
            self.spill_fifos[pe].push(vertices[segment], values[segment])
            # Two writes per spill: the vertex set plus the buffer copy.
            self.hbm[pe].charge_write(
                segment.shape[0] * self._fifo_entry_bytes, sequential=True
            )
        self._activations += int(vertices.shape[0])

    def _mpu_phase(self) -> None:
        """Pop message batches per PE, reduce globally, track activations."""
        config = self.config
        dest_parts: List[np.ndarray] = []
        val_parts: List[np.ndarray] = []
        pe_parts: List[np.ndarray] = []
        for pe in range(config.num_pes):
            inbox = self.inboxes[pe]
            if len(inbox) == 0:
                continue
            dest, values = inbox.pop(config.mpu_batch_per_pe)
            self.reduce_pool[self._gpn_of(pe)].charge(dest.shape[0])
            dest_parts.append(dest)
            val_parts.append(values)
            pe_parts.append(np.full(dest.shape[0], pe, dtype=np.int64))
        if not dest_parts:
            return
        dest = np.concatenate(dest_parts)
        values = np.concatenate(val_parts)
        pes = np.concatenate(pe_parts)
        # Vertex access stream through the per-PE direct-mapped caches.
        blocks = self.layout.block_of(dest)
        cache_out = self.cache.access(pes, blocks, writes=True)
        line = config.cache_line_bytes
        for pe in np.flatnonzero(
            cache_out.misses_per_cache + cache_out.writebacks_per_cache
        ):
            self.hbm[pe].charge_read(int(cache_out.misses_per_cache[pe]) * line)
            self.hbm[pe].charge_write(
                int(cache_out.writebacks_per_cache[pe]) * line
            )
        # Messages landing on a vertex that is already active-pending are
        # absorbed into the pending propagation -- the paper's coalescing
        # (counted before the reduce mutates activation state).
        self._coalesced += int(np.count_nonzero(self.active_now[dest]))
        outcome = self.program.reduce(self.state, dest, values)
        batch = int(dest.shape[0])
        self._messages_processed += batch
        self._useful_messages += outcome.useful_messages
        improved = outcome.improved
        if improved.shape[0]:
            self._inject_active(improved[~self.active_now[improved]])

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
        program, state = self.program, self.state
        sb_bytes = config.superblock_dim * config.block_bytes
        quantum_target = config.latency_floor_s * config.quantum_overlap
        for pe in range(config.num_pes):
            if self.pending[pe].entries >= self._supply_target:
                continue
            if not self.tracker.has_work(pe):
                continue
            scans = self._max_scans
            if config.reduction_priority:
                # Reduction has priority on the vertex channel
                # (Section I): prefetch scans only with the bandwidth the
                # MPU left unused this quantum.  Under reduction load the
                # scans throttle, spilled vertices wait in DRAM, and
                # updates coalesce.
                leftover = (
                    quantum_target - self.hbm[pe].quantum_service_time()
                )
                if leftover <= 0:
                    continue
                budget = int(
                    leftover
                    * config.vertex_channel.random_bandwidth
                    // sb_bytes
                )
                scans = min(self._max_scans, budget)
                if scans <= 0:
                    continue
            superblocks = self.tracker.select_superblocks(pe, scans)
            collected = self.tracker.collect(pe, superblocks)
            block_bytes = config.block_bytes
            useful_blocks = collected.blocks_read - collected.wasteful_blocks
            self.hbm[pe].charge_read(useful_blocks * block_bytes)
            self.hbm[pe].charge_read(
                collected.wasteful_blocks * block_bytes, useful=False
            )
            if collected.active_blocks.shape[0] == 0:
                continue
            candidates = self.layout.block_vertices(pe, collected.active_blocks)
            flat = candidates.ravel()
            flat = flat[flat >= 0]
            active = flat[self.active_now[flat]]
            if active.shape[0] == 0:
                raise SimulationError("collected block without active vertex")
            # The active buffer can only absorb what its depth allows per
            # latency window; overflow blocks are dropped and re-tracked
            # (the hardware prefetcher stalls when the buffer is full).
            budget = max(
                config.vertices_per_block,
                int(
                    config.vmu_supply_rate_per_pe
                    * config.latency_floor_s
                    * config.quantum_overlap
                ),
            )
            kept, overflow = active[:budget], active[budget:]
            if overflow.shape[0]:
                self.tracker.track(overflow)
            self.active_now[kept] = False
            snapshots = program.snapshot(state, kept)
            starts = prop_graph.row_ptr[kept]
            ends = prop_graph.row_ptr[kept + 1]
            live = ends > starts  # degree-0 vertices propagate nothing
            self.pending[pe].push(
                kept[live], snapshots[live], starts[live], ends[live]
            )

    def _vmu_phase_fifo(self, prop_graph: CSRGraph) -> None:
        """Table I's off-chip-buffer retrieval: pop spilled copies in order.

        Retrieval is a cheap FIFO read (no superblock search, no wasteful
        reads) but the buffered value snapshots are stale and duplicate
        copies propagate repeatedly -- the trade the tracker design wins.
        """
        config = self.config
        for pe in range(config.num_pes):
            if self.pending[pe].entries >= self._supply_target:
                continue
            fifo = self.spill_fifos[pe]
            if len(fifo) == 0:
                continue
            vertices, values = fifo.pop(self._supply_target)
            self.hbm[pe].charge_read(
                vertices.shape[0] * self._fifo_entry_bytes, sequential=True
            )
            starts = prop_graph.row_ptr[vertices]
            ends = prop_graph.row_ptr[vertices + 1]
            live = ends > starts
            self.pending[pe].push(
                vertices[live], values[live], starts[live], ends[live]
            )

    def _mgu_phase(self, prop_graph: CSRGraph, traffic: np.ndarray) -> None:
        """Expand edges from active buffers and emit messages."""
        config = self.config
        program, state = self.program, self.state
        msg_bytes = config.message_bytes
        for pe in range(config.num_pes):
            work = self.pending[pe]
            if work.entries == 0:
                continue
            vertices, values, starts, ends = work.pop_edges(
                config.mgu_batch_edges_per_pe
            )
            owner_idx, dests, weights = expand_edges(
                prop_graph, vertices, starts, ends
            )
            nedges = int(dests.shape[0])
            if nedges == 0:
                continue
            gpn = self._gpn_of(pe)
            self.ddr[gpn].charge_read(nedges * config.edge_bytes, sequential=True)
            self.propagate_pool[gpn].charge(nedges)
            msg_values = program.propagate_values(state, values[owner_idx], weights)
            self._edges_traversed += nedges
            self._messages_sent += nedges
            dst_pe = self.layout.pe_of(dests)
            traffic[pe] += np.bincount(
                dst_pe, minlength=config.num_pes
            ) * msg_bytes
            self._outbox.append((dests, msg_values, dst_pe))

    def _deliver(self) -> None:
        """Move the quantum's generated messages into destination inboxes."""
        if not self._outbox:
            return
        dests = np.concatenate([part[0] for part in self._outbox])
        values = np.concatenate([part[1] for part in self._outbox])
        dst_pe = np.concatenate([part[2] for part in self._outbox])
        self._outbox.clear()
        order = np.argsort(dst_pe, kind="stable")
        dests, values, dst_pe = dests[order], values[order], dst_pe[order]
        boundaries = np.flatnonzero(np.diff(dst_pe)) + 1
        segments = np.split(np.arange(dst_pe.shape[0]), boundaries)
        for segment in segments:
            if segment.shape[0] == 0:
                continue
            pe = int(dst_pe[segment[0]])
            self.inboxes[pe].push(dests[segment], values[segment])

    def _close_quantum(self, traffic: np.ndarray) -> None:
        services = {
            "hbm": max(c.quantum_service_time() for c in self.hbm),
            "ddr": max(c.quantum_service_time() for c in self.ddr),
            "reduce_fu": max(
                p.quantum_service_time() for p in self.reduce_pool
            ),
            "propagate_fu": max(
                p.quantum_service_time() for p in self.propagate_pool
            ),
            "fabric": self.fabric.service_time(traffic),
        }
        bottleneck = max(services, key=services.get)
        service = services[bottleneck]
        duration = self.clock.advance(service)
        if duration > service:
            bottleneck = "latency"
        if self._obs_on:
            self._observe_quantum(services, duration, bottleneck)
        for channel in self.hbm:
            channel.end_quantum(duration)
        for channel in self.ddr:
            channel.end_quantum(duration)
        for pool in self.reduce_pool:
            pool.end_quantum(duration)
        for pool in self.propagate_pool:
            pool.end_quantum(duration)
        self.fabric.record(traffic)
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
                hbm_util=np.array(
                    [c.quantum_utilization(duration) for c in self.hbm]
                ),
                ddr_util=np.array(
                    [c.quantum_utilization(duration) for c in self.ddr]
                ),
                reduce_fu_util=np.array(
                    [p.quantum_utilization(duration) for p in self.reduce_pool]
                ),
                propagate_fu_util=np.array(
                    [p.quantum_utilization(duration) for p in self.propagate_pool]
                ),
                fabric_util=services["fabric"] / duration if duration > 0 else 0.0,
                messages_drained=sum(q.popped for q in self.inboxes),
                coalesced=self._coalesced,
                spilled=self._activations,
                prefetch_hits=self.tracker.prefetch_hits,
                prefetch_misses=self.tracker.prefetch_misses,
                inbox_backlog=sum(len(inbox) for inbox in self.inboxes),
                buffer_occupancy=sum(w.entries for w in self.pending),
                tracked_blocks=int(self.tracker.counters.sum()),
            )
        )

    # ------------------------------------------------------------------
    # Drain conditions
    # ------------------------------------------------------------------

    def _messages_pending(self) -> bool:
        return any(len(inbox) for inbox in self.inboxes)

    def _propagation_pending(self) -> bool:
        return (
            self.tracker.any_work()
            or any(work.entries for work in self.pending)
            or any(len(fifo) for fifo in self.spill_fifos)
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
        self._inject_active(np.unique(self.program.initial_active(self.state)))
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
        active = np.unique(self.program.initial_active(self.state))
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
            active = np.unique(self.program.superstep_end(self.state))
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
        hbm_useful = sum(c.totals.useful_read_bytes for c in self.hbm)
        hbm_wasteful = sum(c.totals.wasteful_read_bytes for c in self.hbm)
        hbm_write = sum(c.totals.write_bytes for c in self.hbm)
        ddr_bytes = sum(c.totals.total_bytes for c in self.ddr)

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
            "hbm": float(np.mean([c.utilization(elapsed) for c in self.hbm])),
            "ddr": float(np.mean([c.utilization(elapsed) for c in self.ddr])),
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
