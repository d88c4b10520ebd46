"""PolyGraph [13] behavioural model: temporal slicing with on-chip state.

The paper's baseline (Section V) is PolyGraph's most optimized variant:

- **S_s** -- temporal slicing: Gemini-style contiguous-id slices sized so
  one slice's property state fits in the 32 MiB on-chip memory.
- **A_c** -- asynchronous execution: while a slice is resident its
  vertices live on-chip (vertex accesses cost no DRAM traffic) and
  improved vertices propagate *eagerly* in the same residency -- the
  small coalescing window the paper contrasts with NOVA's DRAM-wide
  window (Fig 5).
- **T_w** -- work-aware scheduling: the next resident slice is the one
  with the most pending work.

Updates destined to **non-resident** slices cannot be applied on-chip:
they are spilled to per-slice FIFO queues in off-chip memory and read
back when their slice becomes resident.  This is exactly the "off-chip
buffer" spilling method of Table I -- one write and one read per
message, no coalescing in the buffer -- and it is what makes temporal
partitioning's overhead grow with slice count: for k id-chunk slices a
fraction ~(k-1)/k of a random graph's edges cross slices.

Each slice switch additionally streams the leaving slice's property
state out and the entering slice's in (Section II-C's switching cost).
Timing is analytic per residency over the single iso-bandwidth memory
pool; re-entries into a slice count toward *inefficiency overhead*
(Fig 2 / Fig 6 breakdowns).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.graph.suites import SLICE_PROPERTY_BYTES
from repro.baselines.slicing import TemporalSlicing
from repro.core.metrics import RunResult
from repro.core.queues import MessageQueue
from repro.core.system import check_against_oracle
from repro.memory.spec import MemorySpec
from repro.sim.stats import StatGroup
from repro.units import GB, MiB
from repro.workloads import get_workload
from repro.workloads.base import VertexProgram, expand_edges


def polygraph_memory(bandwidth: float = 332.8 * GB) -> MemorySpec:
    """The iso-bandwidth unified memory pool of Fig 1 / Fig 4."""
    return MemorySpec(
        name="PG-memory",
        atom_bytes=32,
        capacity_bytes=2**40,
        peak_bandwidth=bandwidth,
        random_efficiency=0.80,
        sequential_efficiency=0.85,
        latency_s=80e-9,
    )


@dataclass(frozen=True)
class PolyGraphConfig:
    """Static configuration of the PolyGraph baseline."""

    onchip_bytes: int = 32 * MiB
    memory: MemorySpec = field(default_factory=polygraph_memory)
    frequency_hz: float = 2e9
    reduce_fus: int = 16
    propagate_fus: int = 48
    vertex_bytes: int = 16
    edge_bytes: int = 8
    message_bytes: int = 8
    property_bytes: int = SLICE_PROPERTY_BYTES
    #: Fixed pipeline-drain/refill cost per slice switch.
    switch_latency_s: float = 1e-6
    #: Latency of one eager processing round inside a residency.
    round_latency_s: float = 100e-9
    #: FIFO messages staged on-chip per eager processing round.  The
    #: off-chip buffer method has no coalescing (Table I): messages are
    #: read back and applied in bounded chunks, and a vertex improved
    #: across chunks propagates once per chunk -- the eager behaviour
    #: whose redundant messages Fig 5 charges against PolyGraph.
    fifo_chunk_messages: int = 16384

    @property
    def reduce_rate(self) -> float:
        return self.reduce_fus * self.frequency_hz

    @property
    def propagate_rate(self) -> float:
        return self.propagate_fus * self.frequency_hz


class PolyGraphEngine:
    """One PolyGraph execution of a vertex program."""

    def __init__(
        self,
        config: PolyGraphConfig,
        graph: CSRGraph,
        program: VertexProgram,
        source: Optional[int] = None,
        num_slices: Optional[int] = None,
        max_residencies: int = 5_000_000,
    ) -> None:
        program.check_graph(graph)
        self.config = config
        self.graph = graph
        self.program = program
        self.source = source
        self.max_residencies = max_residencies
        self.slicing = TemporalSlicing(
            graph, config.onchip_bytes, config.property_bytes, num_slices
        )
        self.state = program.create_state(graph, source)
        n = graph.num_vertices
        s = self.slicing.num_slices
        self.pending = np.zeros(n, dtype=bool)
        self._pending_backlog: List[List[np.ndarray]] = [[] for _ in range(s)]
        self.pending_count = np.zeros(s, dtype=np.int64)
        #: Per-slice off-chip FIFO message queues (Table I, left column).
        self.queues = [MessageQueue() for _ in range(s)]
        self.queue_sizes = np.zeros(s, dtype=np.int64)
        self.visited = np.zeros(s, dtype=bool)

        # Time and traffic accumulators.
        self.processing_s = 0.0
        self.switching_s = 0.0
        self.inefficiency_s = 0.0
        self.edge_bytes = 0
        self.slice_state_bytes = 0
        self.fifo_bytes = 0

        # Work counters.
        self.edges_traversed = 0
        self.messages_processed = 0
        self.messages_sent = 0
        self.useful_messages = 0
        self.coalesced = 0
        self.activations = 0
        self.residencies = 0
        self.slice_switches = 0
        self._current_slice: Optional[int] = None
        self.stats = StatGroup("polygraph")

    # ------------------------------------------------------------------
    # Work bookkeeping
    # ------------------------------------------------------------------

    def _inject_pending(self, vertices: np.ndarray) -> None:
        """Mark vertices as awaiting propagation in their slices."""
        fresh = vertices[~self.pending[vertices]]
        if fresh.shape[0] == 0:
            return
        self.pending[fresh] = True
        self.activations += int(fresh.shape[0])
        slices = self.slicing.slice_of(fresh)
        np.add.at(self.pending_count, slices, 1)
        order = np.argsort(slices, kind="stable")
        fresh, slices = fresh[order], slices[order]
        boundaries = np.flatnonzero(np.diff(slices)) + 1
        for segment in np.split(fresh, boundaries):
            if segment.shape[0]:
                sl = int(self.slicing.slice_of(segment[:1])[0])
                self._pending_backlog[sl].append(segment)

    def _enqueue_remote(self, dests: np.ndarray, values: np.ndarray) -> None:
        """Spill cross-slice messages to their slices' DRAM FIFOs.

        One write per message, no coalescing (Table I): the FIFO grows
        with every cross-slice update, and each entry is individually
        read back and reduced when its slice becomes resident.
        """
        slices = self.slicing.slice_of(dests)
        order = np.argsort(slices, kind="stable")
        dests, values, slices = dests[order], values[order], slices[order]
        boundaries = np.flatnonzero(np.diff(slices)) + 1
        for seg in np.split(np.arange(dests.shape[0]), boundaries):
            if seg.shape[0] == 0:
                continue
            sl = int(slices[seg[0]])
            self.queues[sl].push(dests[seg], values[seg])
            self.queue_sizes[sl] += seg.shape[0]
        nbytes = int(dests.shape[0]) * self.config.message_bytes
        self.fifo_bytes += nbytes
        self.switching_s += nbytes / self.config.memory.sequential_bandwidth

    def _drain_pending(self, sl: int) -> np.ndarray:
        """Pop the deduplicated, still-pending ids of one slice's backlog."""
        if not self._pending_backlog[sl]:
            return np.empty(0, dtype=np.int64)
        ids = np.unique(np.concatenate(self._pending_backlog[sl]))
        self._pending_backlog[sl].clear()
        ids = ids[self.pending[ids]]
        self.pending[ids] = False
        return ids

    def _has_work(self) -> bool:
        return bool(self.pending_count.any() or self.queue_sizes.any())

    def _next_slice(self) -> int:
        """T_w scheduling: the slice with the most pending work."""
        return int(np.argmax(self.pending_count + self.queue_sizes))

    # ------------------------------------------------------------------
    # Residency
    # ------------------------------------------------------------------

    def _switch_to(self, sl: int) -> None:
        """Charge Section II-C's slice-state streaming costs."""
        config = self.config
        if self._current_slice is None:
            self._current_slice = sl
            return
        if self._current_slice == sl:
            return
        nbytes = int(
            self.slicing.vertices_per_slice[self._current_slice]
            + self.slicing.vertices_per_slice[sl]
        ) * config.property_bytes
        self.slice_state_bytes += nbytes
        self.switching_s += (
            nbytes / config.memory.sequential_bandwidth + config.switch_latency_s
        )
        self.slice_switches += 1
        self._current_slice = sl

    def _residency(self, sl: int) -> None:
        config = self.config
        program, state = self.program, self.state
        prop_graph = program.propagation_graph(state)
        slice_of = self.slicing.slice_of

        ready = self._drain_pending(sl)
        self.pending_count[sl] = 0

        rounds = 0
        res_edges = 0
        res_reduces = 0
        revisit = bool(self.visited[sl])
        msgs_dest = np.empty(0, dtype=np.int64)
        msgs_val = np.empty(0)

        while msgs_dest.shape[0] or ready.shape[0] or len(self.queues[sl]):
            rounds += 1
            if msgs_dest.shape[0] == 0 and len(self.queues[sl]):
                # Stage the next bounded chunk of spilled messages from
                # the slice's DRAM FIFO (no coalescing in the buffer).
                msgs_dest, msgs_val = self.queues[sl].pop(
                    config.fifo_chunk_messages
                )
                self.queue_sizes[sl] = len(self.queues[sl])
                fifo_read = msgs_dest.shape[0] * config.message_bytes
                self.fifo_bytes += fifo_read
                self.switching_s += (
                    fifo_read / config.memory.sequential_bandwidth
                )
            if msgs_dest.shape[0]:
                # Messages landing on an already-pending vertex coalesce
                # (the only coalescing PolyGraph's eager pipeline gets).
                self.coalesced += int(
                    np.count_nonzero(self.pending[msgs_dest])
                )
                outcome = program.reduce(state, msgs_dest, msgs_val)
                res_reduces += msgs_dest.shape[0]
                self.messages_processed += msgs_dest.shape[0]
                self.useful_messages += outcome.useful_messages
                improved = outcome.improved
                if improved.shape[0]:
                    newly = improved[~self.pending[improved]]
                    self.pending[newly] = True
                    self.activations += int(newly.shape[0])
                    ready = np.concatenate([ready, newly])
                msgs_dest = np.empty(0, dtype=np.int64)
                msgs_val = np.empty(0)
            if ready.shape[0]:
                # A vertex drained from the backlog and re-improved by a
                # FIFO message in the same residency appears twice; the
                # task queue's present-bits deduplicate it (and harvest-
                # style snapshots such as PR-delta's must run once).
                vertices = np.unique(ready)
                ready = np.empty(0, dtype=np.int64)
                self.pending[vertices] = False
                values = program.snapshot(state, vertices)
                owner_idx, dests, weights = expand_edges(prop_graph, vertices)
                nedges = int(dests.shape[0])
                res_edges += nedges
                self.edges_traversed += nedges
                self.messages_sent += nedges
                if nedges == 0:
                    continue
                out_values = program.propagate_values(
                    state, values[owner_idx], weights
                )
                intra = slice_of(dests) == sl
                if intra.any():
                    msgs_dest = dests[intra]
                    msgs_val = out_values[intra]
                remote = ~intra
                if remote.any():
                    self._enqueue_remote(dests[remote], out_values[remote])

        edge_stream_s = (
            res_edges * config.edge_bytes / config.memory.sequential_bandwidth
        )
        fu_s = max(
            res_edges / config.propagate_rate, res_reduces / config.reduce_rate
        )
        res_time = max(edge_stream_s, fu_s) + rounds * config.round_latency_s
        if revisit:
            self.inefficiency_s += res_time
        else:
            self.processing_s += res_time
        self.visited[sl] = True
        self.edge_bytes += res_edges * config.edge_bytes
        self.residencies += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        if self.program.mode == "bsp":
            self._run_bsp()
        else:
            self._run_async()
        return self._build_result()

    def _run_async(self) -> None:
        self._inject_pending(np.unique(self.program.initial_active(self.state)))
        while self._has_work():
            self._check_quota()
            sl = self._next_slice()
            self._switch_to(sl)
            self._residency(sl)

    def _run_bsp(self) -> None:
        supersteps = 0
        active = np.unique(self.program.initial_active(self.state))
        while active.shape[0]:
            self._inject_pending(active)
            while self._has_work():
                self._check_quota()
                sl = self._next_slice()
                self._switch_to(sl)
                self._residency(sl)
            active = np.unique(self.program.superstep_end(self.state))
            supersteps += 1
        self.stats.set("supersteps", supersteps)

    def _check_quota(self) -> None:
        if self.residencies >= self.max_residencies:
            raise SimulationError(
                f"exceeded {self.max_residencies} residencies; stuck"
            )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def _build_result(self) -> RunResult:
        elapsed = self.processing_s + self.switching_s + self.inefficiency_s
        breakdown = {
            "processing": self.processing_s,
            "switching": self.switching_s,
            "inefficiency": self.inefficiency_s,
        }
        traffic = {
            "edge_bytes": self.edge_bytes,
            "slice_state_bytes": self.slice_state_bytes,
            "fifo_bytes": self.fifo_bytes,
        }
        total_bytes = self.edge_bytes + self.slice_state_bytes + self.fifo_bytes
        busy = total_bytes / self.config.memory.sequential_bandwidth
        stats = self.stats
        stats.set("slices", self.slicing.num_slices)
        stats.set("residencies", self.residencies)
        stats.set("slice_switches", self.slice_switches)
        stats.set("elapsed_seconds", elapsed)
        return RunResult(
            workload=self.program.name,
            system="polygraph",
            num_vertices=self.graph.num_vertices,
            num_edges=self.graph.num_edges,
            result=self.program.result(self.state),
            elapsed_seconds=elapsed,
            quanta=self.residencies,
            edges_traversed=self.edges_traversed,
            messages_sent=self.messages_sent,
            messages_processed=self.messages_processed,
            useful_messages=self.useful_messages,
            redundant_messages=self.messages_processed - self.useful_messages,
            coalesced_messages=self.coalesced,
            activations=self.activations,
            breakdown=breakdown,
            traffic=traffic,
            utilization={
                "memory": min(1.0, busy / elapsed) if elapsed > 0 else 0.0
            },
            stats=stats,
        )


class PolyGraphSystem:
    """Public wrapper mirroring :class:`repro.core.system.NovaSystem`."""

    def __init__(
        self,
        config: PolyGraphConfig,
        graph: CSRGraph,
        num_slices: Optional[int] = None,
    ) -> None:
        self.config = config
        self.graph = graph
        self.num_slices = num_slices

    def run(
        self,
        workload: Union[str, VertexProgram],
        source: Optional[int] = None,
        compute_reference: bool = False,
        **workload_kwargs,
    ) -> RunResult:
        program = (
            get_workload(workload, **workload_kwargs)
            if isinstance(workload, str)
            else workload
        )
        engine = PolyGraphEngine(
            self.config, self.graph, program, source=source,
            num_slices=self.num_slices,
        )
        run = engine.run()
        if compute_reference:
            check_against_oracle(program, self.graph, source, run)
        return run
