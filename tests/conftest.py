"""Shared fixtures: small graphs and configurations for fast tests."""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    power_law,
    rmat,
    road_grid,
    uniform_random,
    with_uniform_weights,
)
from repro.sim.config import NovaConfig, scaled_config

# Redirect the graph artifact store into a throwaway directory for the
# whole test session (subprocesses spawned by tests inherit it), unless
# the caller already isolated it.  Done at import time so every code
# path -- including module-level fixtures and forked workers -- sees the
# same root, and the suite never writes artifacts into ~/.cache.
if "REPRO_GRAPH_STORE_DIR" not in os.environ:
    _STORE_TMP = tempfile.TemporaryDirectory(prefix="repro-test-graphs-")
    os.environ["REPRO_GRAPH_STORE_DIR"] = _STORE_TMP.name


@pytest.fixture(autouse=True)
def _fresh_trace_sink():
    """Re-read the cached REPRO_TRACE sink around every test, so a
    monkeypatched sink takes effect despite the once-per-process cache
    in :mod:`repro.obs.tracing`."""
    from repro.obs import tracing

    tracing.refresh()
    yield
    tracing.refresh()


@pytest.fixture(scope="session")
def tiny_graph() -> CSRGraph:
    """A hand-built 6-vertex graph with known structure.

    Edges: 0->1, 0->2, 1->3, 2->3, 3->4; vertex 5 is isolated.
    """
    src = np.array([0, 0, 1, 2, 3])
    dst = np.array([1, 2, 3, 3, 4])
    return CSRGraph.from_edges(src, dst, 6)


@pytest.fixture(scope="session")
def rmat_graph() -> CSRGraph:
    """~1k vertices, ~8k edges, power-law-ish."""
    return rmat(10, 8, seed=5)


@pytest.fixture(scope="session")
def rmat_source(rmat_graph) -> int:
    """A well-connected source vertex in rmat_graph."""
    return int(np.argmax(rmat_graph.out_degrees()))


@pytest.fixture(scope="session")
def weighted_graph(rmat_graph) -> CSRGraph:
    return with_uniform_weights(rmat_graph, seed=7)


@pytest.fixture(scope="session")
def symmetric_graph(rmat_graph) -> CSRGraph:
    return rmat_graph.symmetrized()


@pytest.fixture(scope="session")
def grid_graph() -> CSRGraph:
    """16x16 road-like grid (no shortcuts): symmetric, high diameter."""
    return road_grid(16, 16, diagonal_fraction=0.0)


@pytest.fixture(scope="session")
def random_graph() -> CSRGraph:
    return uniform_random(512, 4096, seed=11)


@pytest.fixture(scope="session")
def powerlaw_graph() -> CSRGraph:
    return power_law(1024, 8.0, seed=13)


@pytest.fixture
def small_config() -> NovaConfig:
    """One GPN with tiny capacities: fast to simulate, heavy on spills."""
    return scaled_config(num_gpns=1, scale=1.0 / 1024.0)


@pytest.fixture
def two_gpn_config() -> NovaConfig:
    return scaled_config(num_gpns=2, scale=1.0 / 1024.0)
