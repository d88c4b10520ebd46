"""Randomized differential matrix: NovaEngine vs ScalarNovaEngine.

``test_engine_parity`` pins equivalence on a handful of handpicked
shapes; this module sweeps a seeded, randomly generated case matrix
(graph family x workload x config x placement x VMU mode) and asserts
the two engines are bit-identical on *everything* a run produces --
simulated time, counters, vertex state, and the observability timeline
introduced with :mod:`repro.obs` (which must itself be engine-invariant,
since golden-trace fixtures and cached sweep results depend on it).

The matrix is deterministic (fixed RNG seed): every case prints its
parameters on failure, so a regression is reproducible by index.  A fast
subset runs everywhere; the bulk is marked ``slow`` so
``pytest -m "not slow"`` keeps a quick signal.

A second generator draws hard cases: hub-heavy power-law graphs with
one propagate FU per GPN, whose 500-edge MGU budget per PE splits
active-buffer entries across quanta and, in FIFO mode, leaves PEs at
their supply target while others retrieve.  Spies check that those
cases reach both paths of the pooled queues.  Zero-budget retrieval
needs FIFO mode on a mostly active graph (cc at one GPN reaches it in
about half its retrievals; bfs and pr rarely do), so the hard seed is
one whose draw includes such a case.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.system import NovaSystem
from repro.graph.generators import (
    power_law,
    rmat,
    road_grid,
    uniform_random,
    with_uniform_weights,
)
from repro.obs import ObsConfig, make_recorder
from repro.sim.config import scaled_config

from tests.core.test_engine_parity import assert_identical, spy_pops

NUM_CASES = 30
FAST_CASES = 8  # first N run in the "not slow" split
NUM_HARD_CASES = 4

_GRAPH_FAMILIES = ("rmat", "urand", "powerlaw", "grid")
_WORKLOADS = ("bfs", "sssp", "pr", "cc")
_PLACEMENTS = ("random", "interleave", "load_balanced")


def _build_graph(rng):
    family = _GRAPH_FAMILIES[rng.integers(len(_GRAPH_FAMILIES))]
    seed = int(rng.integers(1, 1000))
    if family == "rmat":
        return family, seed, rmat(int(rng.integers(8, 10)), 8, seed=seed)
    if family == "urand":
        n = int(rng.integers(256, 768))
        return family, seed, uniform_random(n, n * 6, seed=seed)
    if family == "powerlaw":
        return family, seed, power_law(int(rng.integers(256, 768)), 6.0, seed=seed)
    side = int(rng.integers(12, 20))
    return family, seed, road_grid(side, side, seed=seed)


def _build_hub_graph(rng):
    seed = int(rng.integers(1, 1000))
    n = int(rng.choice([1024, 2048]))
    return "hubs", seed, power_law(n, 16.0, seed=seed)


def _make_cases(
    seed=20250806, count=NUM_CASES, build_graph=_build_graph, **updates
):
    """Deterministic pseudo-random case matrix (seeded); ``updates``
    apply to every case's config."""
    rng = np.random.default_rng(seed)
    cases = []
    for index in range(count):
        family, graph_seed, graph = build_graph(rng)
        workload = _WORKLOADS[rng.integers(len(_WORKLOADS))]
        if workload == "sssp":
            graph = with_uniform_weights(graph, seed=graph_seed)
        elif workload == "cc":
            graph = graph.symmetrized()
        config = scaled_config(
            num_gpns=int(rng.choice([1, 2])),
            scale=float(rng.choice([1 / 512, 1 / 1024, 1 / 2048])),
        )
        if updates:
            config = config.with_updates(**updates)
        if rng.random() < 0.2:
            config = config.with_updates(vmu_mode="fifo")
        if rng.random() < 0.3:
            config = config.with_updates(reduction_priority=False)
        source = None
        kwargs = {}
        if workload in ("bfs", "sssp"):
            candidates = np.flatnonzero(graph.out_degrees() > 0)
            source = int(rng.choice(candidates))
        if workload == "pr":
            kwargs["max_supersteps"] = int(rng.integers(2, 4))
        cases.append(
            dict(
                index=index,
                family=family,
                graph_seed=graph_seed,
                graph=graph,
                workload=workload,
                config=config,
                placement=_PLACEMENTS[rng.integers(len(_PLACEMENTS))],
                source=source,
                kwargs=kwargs,
                capacity=int(rng.choice([16, 128, 1024])),
            )
        )
    return cases


CASES = _make_cases()
HARD_CASES = _make_cases(
    seed=20261021,
    count=NUM_HARD_CASES,
    build_graph=_build_hub_graph,
    propagate_fus_per_gpn=1,
)


def _case_id(case):
    return (
        f"{case['index']:02d}-{case['workload']}-{case['family']}"
        f"-g{case['config'].num_gpns}-{case['config'].vmu_mode}"
    )


def _run_differential(case):
    runs = {}
    for engine in ("scalar", "vectorized"):
        system = NovaSystem(
            case["config"],
            case["graph"],
            placement=case["placement"],
            engine=engine,
        )
        recorder = make_recorder(
            ObsConfig(timeline=True, timeline_capacity=case["capacity"])
        )
        runs[engine] = system.run(
            case["workload"],
            source=case["source"],
            recorder=recorder,
            **case["kwargs"],
        )
    scalar, vectorized = runs["scalar"], runs["vectorized"]
    assert_identical(scalar, vectorized)
    assert vectorized.timeline is not None
    assert vectorized.timeline == scalar.timeline, (
        f"timelines diverge for case {_case_id(case)}"
    )
    # The timeline agrees with the run it instrumented.
    assert vectorized.timeline["quanta"] == vectorized.quanta
    totals = vectorized.timeline["totals"]
    assert totals["elapsed_seconds"] == pytest.approx(
        vectorized.elapsed_seconds
    )
    assert sum(totals["class_quanta"].values()) == vectorized.quanta


@pytest.mark.parametrize(
    "case", CASES[:FAST_CASES], ids=[_case_id(c) for c in CASES[:FAST_CASES]]
)
def test_differential_fast(case):
    _run_differential(case)


@pytest.mark.slow
@pytest.mark.parametrize(
    "case", CASES[FAST_CASES:], ids=[_case_id(c) for c in CASES[FAST_CASES:]]
)
def test_differential_slow(case):
    _run_differential(case)


@pytest.mark.slow
def test_differential_hard_cases(monkeypatch):
    splits, zero_budget = spy_pops(monkeypatch)
    for case in HARD_CASES:
        _run_differential(case)
    assert any(splits)
    assert any(zero_budget)
