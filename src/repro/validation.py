"""Cross-system validation harness.

Runs the same workload on NOVA, PolyGraph, the Ligra model, and the
timing-free functional driver, then checks that all four agree with the
sequential oracle.  This is the repository's end-to-end health check --
one call exercises every engine's functional path on real inputs.

Also exposed as ``python -m repro validate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.system import verify_result
from repro.graph.csr import CSRGraph
from repro.runner.execute import execute_spec
from repro.runner.spec import lower_run
from repro.workloads import get_workload
from repro.workloads.driver import run_functional


@dataclass
class ValidationReport:
    """Outcome of one cross-system validation."""

    workload: str
    num_vertices: int
    num_edges: int
    systems: List[str] = field(default_factory=list)
    passed: bool = True
    failures: Dict[str, str] = field(default_factory=dict)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = (
            "" if self.passed
            else " (" + "; ".join(f"{k}: {v}" for k, v in self.failures.items()) + ")"
        )
        return (
            f"{status} {self.workload} on V={self.num_vertices:,} "
            f"E={self.num_edges:,} across {', '.join(self.systems)}{detail}"
        )


def validate_workload(
    workload: str,
    graph: CSRGraph,
    source: Optional[int] = None,
    scale: float = 1.0 / 256.0,
    **workload_kwargs,
) -> ValidationReport:
    """Run one workload on every engine and compare with the oracle.

    NOVA, PolyGraph and Ligra run the specs :func:`lower_run` builds
    from ``scale`` (one GPN, PolyGraph's on-chip memory scaled with
    the graph), as ``repro run`` would describe them.
    """
    specs = {
        system: lower_run(
            workload,
            graph,
            system=system,
            scale=scale,
            source=source,
            workload_kwargs=workload_kwargs,
        )
        for system in ("nova", "polygraph", "ligra")
    }
    source = specs["nova"].source
    program = get_workload(workload, **workload_kwargs)
    expected, _ = program.reference(graph, source)

    candidates = {
        "functional": lambda: run_functional(
            get_workload(workload, **workload_kwargs), graph, source
        ).result,
    }
    for system, spec in specs.items():
        candidates[system] = lambda spec=spec: execute_spec(spec).result

    report = ValidationReport(
        workload=workload,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
    )
    # pr-delta converges within its threshold, not exactly; compare with
    # a tolerance matched to the residual bound.
    atol = 1e-6
    if workload == "pr-delta":
        threshold = workload_kwargs.get("threshold", 1e-7)
        atol = threshold * graph.num_vertices

    for name, runner in candidates.items():
        report.systems.append(name)
        try:
            actual = runner()
            verify_result(program.name, actual, expected, atol=atol)
        except AssertionError as failure:
            report.passed = False
            report.failures[name] = str(failure)
    return report


def validate_all(
    graph: CSRGraph,
    weighted_graph: Optional[CSRGraph] = None,
    scale: float = 1.0 / 256.0,
) -> List[ValidationReport]:
    """Validate every workload on appropriate graph variants."""
    from repro.graph.generators import with_uniform_weights

    if weighted_graph is None:
        weighted_graph = with_uniform_weights(graph, seed=7)
    symmetric = graph.symmetrized()
    reports = [
        validate_workload("bfs", graph, scale=scale),
        validate_workload("sssp", weighted_graph, scale=scale),
        validate_workload("cc", symmetric, scale=scale),
        validate_workload("pr", graph, scale=scale, max_supersteps=40),
        validate_workload("bc", graph, scale=scale),
        validate_workload("pr-delta", graph, scale=scale, threshold=1e-8),
    ]
    return reports
