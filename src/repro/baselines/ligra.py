"""Ligra [41] software baseline as an analytic cost model.

The paper compares against Ligra on an 8-core x86 with a 32 MiB L3 and
400 GB/s of memory bandwidth (Section V).  Rather than re-implementing a
multicore runtime, this model runs the exact functional execution
(:func:`repro.workloads.driver.run_functional`) and prices each of its
rounds with Ligra's direction-optimizing cost structure:

- **push**: traverse the frontier's out-edges; every edge pays the edge
  read plus a probabilistic cache-line miss on the random destination
  vertex (miss probability grows as the vertex set outgrows the L3).
- **pull**: scan all vertices' in-edges (dense frontiers); sequential
  vertex access, every edge read once.
- each round additionally pays a parallel-for synchronization cost, which
  is what makes high-diameter graphs (RoadUSA) disproportionately slow on
  CPUs -- the effect visible in Fig 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.graph.csr import CSRGraph
from repro.core.metrics import RunResult
from repro.sim.stats import StatGroup
from repro.units import GB, MiB
from repro.workloads import get_workload
from repro.workloads.base import VertexProgram
from repro.workloads.driver import run_functional


@dataclass(frozen=True)
class LigraConfig:
    """The paper's software platform (Section V)."""

    cores: int = 8
    frequency_hz: float = 3e9
    l3_bytes: int = 32 * MiB
    memory_bandwidth: float = 400 * GB
    vertex_bytes: int = 16
    edge_bytes: int = 8
    cache_line_bytes: int = 64
    #: Instructions retired per edge traversal (compute-bound ceiling).
    instructions_per_edge: float = 12.0
    #: Fork/join barrier cost per frontier round.
    sync_overhead_s: float = 5e-6
    #: Dense-frontier threshold for direction switching (|frontier
    #: edges| > E / threshold_divisor switches to pull).
    threshold_divisor: int = 20

    @property
    def compute_rate(self) -> float:
        """Edges per second at the compute-bound ceiling."""
        return self.cores * self.frequency_hz / self.instructions_per_edge


class LigraModel:
    """Frontier-driven analytic execution of one workload."""

    def __init__(self, config: LigraConfig, graph: CSRGraph) -> None:
        self.config = config
        self.graph = graph

    def _miss_probability(self) -> float:
        """Chance a random vertex access misses the L3."""
        footprint = self.graph.num_vertices * self.config.vertex_bytes
        if footprint <= self.config.l3_bytes:
            return 0.0
        return 1.0 - self.config.l3_bytes / footprint

    def _round_time(self, frontier_edges: int) -> float:
        config = self.config
        p_miss = self._miss_probability()
        push_bytes = frontier_edges * (
            config.edge_bytes + p_miss * config.cache_line_bytes
        )
        push_time = max(
            push_bytes / config.memory_bandwidth,
            frontier_edges / config.compute_rate,
        )
        pull_edges = self.graph.num_edges
        pull_bytes = pull_edges * config.edge_bytes + (
            self.graph.num_vertices * config.vertex_bytes
        )
        pull_time = max(
            pull_bytes / config.memory_bandwidth,
            pull_edges / config.compute_rate,
        )
        dense = frontier_edges * config.threshold_divisor > self.graph.num_edges
        return (pull_time if dense and pull_time < push_time else push_time) + (
            config.sync_overhead_s
        )

    def run(
        self,
        workload: Union[str, VertexProgram],
        source: Optional[int] = None,
        compute_reference: bool = False,
        **workload_kwargs,
    ) -> RunResult:
        """Execute one workload; exact results, modelled time."""
        program = (
            get_workload(workload, **workload_kwargs)
            if isinstance(workload, str)
            else workload
        )
        functional = run_functional(program, self.graph, source)
        elapsed = sum(
            self._round_time(edges) for edges in functional.round_edges
        )
        stats = StatGroup("ligra")
        stats.set("rounds", functional.rounds)
        stats.set("miss_probability", self._miss_probability())
        messages = functional.messages
        run = RunResult(
            workload=program.name,
            system="ligra",
            num_vertices=self.graph.num_vertices,
            num_edges=self.graph.num_edges,
            result=functional.result,
            elapsed_seconds=elapsed,
            quanta=functional.rounds,
            edges_traversed=functional.edges_traversed,
            messages_sent=messages,
            messages_processed=messages,
            useful_messages=functional.useful_messages,
            redundant_messages=messages - functional.useful_messages,
            coalesced_messages=0,
            activations=0,
            breakdown={"processing": elapsed},
            traffic={},
            utilization={},
            stats=stats,
        )
        if compute_reference:
            from repro.core.system import check_against_oracle

            check_against_oracle(program, self.graph, source, run)
        return run
