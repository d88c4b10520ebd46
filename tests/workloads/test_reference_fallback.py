"""The oracle's pure-Python fallbacks agree with scipy's kernels.

scipy is an optional accelerator imported on the oracle's first call,
so on a numpy-only install ``_dijkstra_python`` and ``_cc_python`` are
the oracle.  These tests hide scipy from the import system and compare
the fallback answers with scipy's on random weighted multigraphs
(duplicate edges with different weights, self-loops, unreachable and
isolated vertices).
"""

import sys

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import uniform_random, with_uniform_weights
from repro.workloads import reference

pytest.importorskip("scipy")


def _hide_scipy(monkeypatch) -> None:
    """Make ``import scipy`` fail and forget the oracle's probe."""
    for name in [m for m in sys.modules if m.startswith("scipy.")] + ["scipy"]:
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.setattr(reference, "_CSGRAPH", None)


def _random_graph(seed: int) -> CSRGraph:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    graph = uniform_random(n, int(rng.integers(0, 4 * n)), seed=seed)
    return with_uniform_weights(graph, low=0.5, high=10.0, seed=seed)


GRAPHS = [_random_graph(seed) for seed in range(12)]


def test_hidden_scipy_selects_the_fallback(monkeypatch):
    assert reference._scipy_csgraph() is not None
    with monkeypatch.context() as patch:
        _hide_scipy(patch)
        assert reference._scipy_csgraph() is None
    assert reference._scipy_csgraph() is not None


@pytest.mark.parametrize("graph", GRAPHS)
def test_dijkstra_fallback_matches_scipy(monkeypatch, graph):
    source = int(np.argmax(graph.out_degrees()))
    expected, expected_edges = reference.sssp_distances(graph, source)
    with monkeypatch.context() as patch:
        _hide_scipy(patch)
        dist, edges = reference.sssp_distances(graph, source)
    np.testing.assert_array_equal(dist, expected)
    assert edges == expected_edges


@pytest.mark.parametrize("graph", GRAPHS)
def test_cc_fallback_matches_scipy(monkeypatch, graph):
    expected, expected_edges = reference.connected_components(graph)
    with monkeypatch.context() as patch:
        _hide_scipy(patch)
        labels, edges = reference.connected_components(graph)
    np.testing.assert_array_equal(labels, expected)
    assert edges == expected_edges


def test_fallback_keeps_the_lightest_duplicate(monkeypatch):
    graph = CSRGraph.from_edges(
        np.array([0, 0, 1, 2, 3]),
        np.array([1, 1, 2, 2, 0]),
        5,
        weights=np.array([5.0, 2.0, 1.0, 4.0, 1.0]),
    )
    with monkeypatch.context() as patch:
        _hide_scipy(patch)
        dist, _ = reference.sssp_distances(graph, 0)
        labels, _ = reference.connected_components(graph)
    np.testing.assert_array_equal(dist, [0.0, 2.0, 3.0, np.inf, np.inf])
    np.testing.assert_array_equal(labels, [0, 0, 0, 0, 4])
