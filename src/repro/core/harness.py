"""Multi-trial experiment harness.

Graph-benchmarking methodology (GAP, Graph500) reports traversal
workloads over several random sources because single-source numbers are
noisy -- a hub source saturates the machine, a leaf source exercises the
latency floor.  :class:`ExperimentHarness` runs one system+workload over
a set of sources (or seeds, for source-free workloads) and aggregates
times and throughputs, including the harmonic-mean TEPS that Graph500
specifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.metrics import RunResult
from repro.errors import ConfigError
from repro.graph.csr import CSRGraph


@dataclass
class AggregateResult:
    """Statistics over a set of runs of the same experiment."""

    runs: List[RunResult] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.runs)

    def _times(self) -> np.ndarray:
        return np.array([r.elapsed_seconds for r in self.runs])

    def _gteps(self) -> np.ndarray:
        return np.array([r.gteps for r in self.runs])

    @property
    def mean_seconds(self) -> float:
        return float(self._times().mean())

    @property
    def std_seconds(self) -> float:
        return float(self._times().std())

    @property
    def min_seconds(self) -> float:
        return float(self._times().min())

    @property
    def max_seconds(self) -> float:
        return float(self._times().max())

    @property
    def harmonic_mean_gteps(self) -> float:
        """Graph500's aggregate: harmonic mean of per-run TEPS."""
        gteps = self._gteps()
        if (gteps <= 0).any():
            return 0.0
        return float(len(gteps) / np.sum(1.0 / gteps))

    @property
    def mean_gteps(self) -> float:
        return float(self._gteps().mean())

    def summary(self) -> str:
        if not self.runs:
            return "no runs"
        head = self.runs[0]
        return (
            f"[{head.system}/{head.workload}] {len(self.runs)} trials: "
            f"time {self.mean_seconds * 1e3:.3f} ms "
            f"(+/- {self.std_seconds * 1e3:.3f}, "
            f"min {self.min_seconds * 1e3:.3f}, "
            f"max {self.max_seconds * 1e3:.3f}), "
            f"harmonic-mean {self.harmonic_mean_gteps:.2f} GTEPS"
        )


def sample_sources(
    graph: CSRGraph,
    count: int,
    seed: int = 17,
    require_outgoing: bool = True,
) -> np.ndarray:
    """Graph500-style source sampling: random vertices, optionally
    restricted to those with at least one outgoing edge."""
    if count <= 0:
        raise ConfigError("count must be positive")
    rng = np.random.default_rng(seed)
    if require_outgoing:
        candidates = np.flatnonzero(graph.out_degrees() > 0)
        if candidates.size == 0:
            raise ConfigError("graph has no vertex with outgoing edges")
    else:
        candidates = np.arange(graph.num_vertices)
    replace = candidates.size < count
    return rng.choice(candidates, size=count, replace=replace)


class ExperimentHarness:
    """Run one workload repeatedly over sampled sources and aggregate.

    The harness is system-agnostic: pass any object with a
    ``run(workload, source=..., **kwargs)`` method (NovaSystem,
    PolyGraphSystem, LigraModel).

    With a :class:`~repro.runner.sweep.SweepRunner` attached, the trial
    runs execute through the runner instead -- cached across harness
    invocations and fanned out over its forked children.  (Trials over
    different sources are independent simulations, so this is exact.)

    An :class:`~repro.obs.ObsConfig` instruments every trial (NOVA
    systems only): direct runs get a fresh recorder per trial, and
    runner-backed runs carry the config in their specs, so cached
    results keep their timelines.
    """

    def __init__(self, system, graph: CSRGraph, runner=None, obs=None) -> None:
        self.system = system
        self.graph = graph
        self.runner = runner
        self.obs = obs
        if obs is not None and obs.active and type(system).__name__ != "NovaSystem":
            raise ConfigError(
                "observability instrumentation is only supported for "
                f"NovaSystem, not {type(system).__name__}"
            )

    def _run_specs(self, specs) -> List[RunResult]:
        results, _ = self.runner.run(specs)
        return results

    def _spec(self, workload: str, source: Optional[int], workload_kwargs):
        """Describe one ``system.run`` call as a cacheable RunSpec."""
        from repro.runner.spec import RunSpec

        system = self.system
        kind = type(system).__name__
        if kind == "NovaSystem":
            return RunSpec(
                workload,
                self.graph,
                config=system.config,
                system="nova",
                source=source,
                placement=system.placement,
                workload_kwargs=dict(workload_kwargs),
                obs=self.obs,
            )
        if kind == "PolyGraphSystem":
            return RunSpec(
                workload,
                self.graph,
                config=system.config,
                system="polygraph",
                source=source,
                workload_kwargs=dict(workload_kwargs),
            )
        if kind == "LigraModel":
            return RunSpec(
                workload,
                self.graph,
                config=system.config,
                system="ligra",
                source=source,
                workload_kwargs=dict(workload_kwargs),
            )
        raise ConfigError(
            f"runner-backed harness does not know system {kind!r}"
        )

    def _recorder_kwargs(self) -> dict:
        """Per-trial recorder for direct (non-runner) runs."""
        if self.obs is None or not self.obs.active:
            return {}
        from repro.obs.config import make_recorder

        return {"recorder": make_recorder(self.obs)}

    def run_sources(
        self,
        workload: str,
        sources: Optional[Sequence[int]] = None,
        trials: int = 4,
        seed: int = 17,
        **workload_kwargs,
    ) -> AggregateResult:
        """Run a traversal workload from several sources."""
        if sources is None:
            sources = sample_sources(self.graph, trials, seed=seed)
        aggregate = AggregateResult()
        if self.runner is not None:
            specs = [
                self._spec(workload, int(source), workload_kwargs)
                for source in sources
            ]
            aggregate.runs.extend(self._run_specs(specs))
            return aggregate
        for source in sources:
            aggregate.runs.append(
                self.system.run(
                    workload,
                    source=int(source),
                    **self._recorder_kwargs(),
                    **workload_kwargs,
                )
            )
        return aggregate

    def run_repeated(
        self, workload: str, trials: int = 3, **workload_kwargs
    ) -> AggregateResult:
        """Run a source-free workload (cc/pr) several times."""
        if trials <= 0:
            raise ConfigError("trials must be positive")
        aggregate = AggregateResult()
        if self.runner is not None:
            # Source-free runs are deterministic, so the trials are
            # identical simulations; compute once, reuse the result.
            spec = self._spec(workload, None, workload_kwargs)
            run = self.runner.run_one(spec)
            aggregate.runs.extend([run] * trials)
            return aggregate
        for _ in range(trials):
            aggregate.runs.append(
                self.system.run(
                    workload, **self._recorder_kwargs(), **workload_kwargs
                )
            )
        return aggregate
