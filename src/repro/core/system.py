"""High-level public API: build a NOVA system and run workloads on it.

Typical use (see ``examples/quickstart.py``)::

    from repro import NovaSystem, scaled_config
    from repro.graph.generators import rmat

    graph = rmat(16, edge_factor=16, seed=1)
    system = NovaSystem(scaled_config(num_gpns=2), graph)
    run = system.run("bfs", source=0)
    print(run.describe())
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.graph.partition import (
    VertexPlacement,
    interleave_placement,
    load_balanced_placement,
    locality_placement,
    random_placement,
)
from repro.core.engine import NovaEngine
from repro.core.metrics import RunResult
from repro.obs.tracing import trace_span
from repro.sim.config import NovaConfig
from repro.workloads import get_workload
from repro.workloads.base import VertexProgram


def make_placement(
    strategy: str, graph: CSRGraph, num_pes: int, seed: int = 1
) -> VertexPlacement:
    """Build one of the paper's spatial vertex mappings by name."""
    if strategy == "interleave":
        return interleave_placement(graph.num_vertices, num_pes)
    if strategy == "random":
        return random_placement(graph.num_vertices, num_pes, seed=seed)
    if strategy == "load_balanced":
        return load_balanced_placement(graph, num_pes)
    if strategy == "locality":
        return locality_placement(graph, num_pes)
    raise ConfigError(
        f"unknown placement strategy {strategy!r}; expected interleave, "
        "random, load_balanced, or locality"
    )


class NovaSystem:
    """A configured NOVA accelerator bound to one input graph.

    Args:
        config: system configuration (see :func:`repro.sim.scaled_config`).
        graph: the input graph in CSR form.
        placement: either a prebuilt :class:`VertexPlacement` or a
            strategy name ("random" is the paper's default, Section V).
        engine: "vectorized" (default, the flat-batched hot path) or
            "scalar" (the per-PE-loop golden reference in
            :mod:`repro.core.engine_scalar`).  The engines are
            bit-identical; scalar exists for equivalence testing and as
            the perf baseline.
    """

    def __init__(
        self,
        config: NovaConfig,
        graph: CSRGraph,
        placement: Union[str, VertexPlacement] = "random",
        seed: int = 1,
        engine: str = "vectorized",
    ) -> None:
        self.config = config
        self.graph = graph
        if isinstance(placement, str):
            placement = make_placement(placement, graph, config.num_pes, seed=seed)
        self.placement = placement
        if engine == "vectorized":
            self._engine_cls = NovaEngine
        elif engine == "scalar":
            from repro.core.engine_scalar import ScalarNovaEngine

            self._engine_cls = ScalarNovaEngine
        else:
            raise ConfigError(
                f"unknown engine {engine!r}; expected vectorized or scalar"
            )

    def run(
        self,
        workload: Union[str, VertexProgram],
        source: Optional[int] = None,
        compute_reference: bool = False,
        max_quanta: int = 5_000_000,
        recorder=None,
        **workload_kwargs,
    ) -> RunResult:
        """Execute one workload to completion and return its results.

        Args:
            workload: a workload name ("bfs", "cc", "sssp", "pr", "bc")
                or a prebuilt :class:`VertexProgram`.
            source: source vertex for traversal workloads.
            compute_reference: also run the sequential oracle, verify the
                accelerator's answer against it, and fill in
                ``RunResult.reference_edges`` (enables work-efficiency
                metrics; costs an extra sequential execution).
            max_quanta: safety bound on simulation length.
            recorder: a :class:`repro.obs.MetricsRecorder` to instrument
                the run (fills ``RunResult.timeline`` when it records one).
        """
        program = (
            get_workload(workload, **workload_kwargs)
            if isinstance(workload, str)
            else workload
        )
        engine = self._engine_cls(
            self.config,
            self.graph,
            program,
            placement=self.placement,
            source=source,
            max_quanta=max_quanta,
            recorder=recorder,
        )
        with trace_span(
            "nova.run",
            workload=program.name,
            num_vertices=self.graph.num_vertices,
            num_edges=self.graph.num_edges,
            source=source,
        ):
            run = engine.run()
        if compute_reference:
            expected, reference_edges = program.reference(self.graph, source)
            run.reference_edges = reference_edges
            verify_result(program.name, run.result, expected)
        return run

    def describe(self) -> str:
        """Human-readable configuration summary."""
        config = self.config
        return (
            f"NOVA: {config.num_gpns} GPN x {config.pes_per_gpn} PE @ "
            f"{config.frequency_hz / 1e9:.1f} GHz, cache "
            f"{config.cache_bytes_per_pe} B/PE, active buffer "
            f"{config.active_buffer_entries} entries, superblock_dim "
            f"{config.superblock_dim}, fabric {config.fabric_kind}; graph "
            f"V={self.graph.num_vertices:,} E={self.graph.num_edges:,} "
            f"placement={self.placement.strategy}"
        )


def verify_result(
    workload: str, actual: np.ndarray, expected: np.ndarray, atol: float = 1e-6
) -> None:
    """Assert an accelerator answer matches the sequential oracle.

    Monotone integer-valued workloads (BFS/CC) must match exactly;
    floating accumulations (SSSP sums, PR, BC) compare with tolerance.
    """
    if workload in ("bfs", "cc"):
        if not np.array_equal(actual, expected):
            bad = int(np.count_nonzero(actual != expected))
            raise AssertionError(
                f"{workload}: {bad} vertices differ from the oracle"
            )
        return
    finite_a = np.isfinite(actual)
    finite_e = np.isfinite(expected)
    if not np.array_equal(finite_a, finite_e):
        raise AssertionError(f"{workload}: reachability differs from the oracle")
    if not np.allclose(actual[finite_a], expected[finite_e], atol=atol, rtol=1e-9):
        worst = float(np.max(np.abs(actual[finite_a] - expected[finite_e])))
        raise AssertionError(
            f"{workload}: values diverge from the oracle (max abs err {worst:g})"
        )
