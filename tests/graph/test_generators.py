"""Synthetic graph generators: determinism, shape, and validation."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import generators, suites
from repro.graph.generators import (
    power_law,
    rmat,
    road_grid,
    uniform_random,
    with_uniform_weights,
)
from repro.runner.cache import graph_digest


class TestUniformRandom:
    def test_sizes(self):
        g = uniform_random(100, 500, seed=1)
        assert g.num_vertices == 100
        assert g.num_edges == 500

    def test_deterministic(self):
        a = uniform_random(64, 256, seed=9)
        b = uniform_random(64, 256, seed=9)
        assert np.array_equal(a.col_idx, b.col_idx)
        assert np.array_equal(a.row_ptr, b.row_ptr)

    def test_seed_changes_graph(self):
        a = uniform_random(64, 256, seed=1)
        b = uniform_random(64, 256, seed=2)
        assert not np.array_equal(a.col_idx, b.col_idx)

    def test_dedup_reduces_edges(self):
        dense = uniform_random(8, 500, seed=3, dedup=True)
        assert dense.num_edges <= 64

    def test_rejects_bad_sizes(self):
        with pytest.raises(GraphFormatError):
            uniform_random(0, 10)
        with pytest.raises(GraphFormatError):
            uniform_random(10, -1)

    def test_degrees_roughly_uniform(self):
        g = uniform_random(1000, 32000, seed=5)
        deg = g.out_degrees()
        assert deg.mean() == pytest.approx(32.0, rel=0.01)
        # Poisson-ish: the max degree stays within a few standard deviations.
        assert deg.max() < 32 + 10 * np.sqrt(32)


class TestRmat:
    def test_sizes(self):
        g = rmat(8, 4, seed=1)
        assert g.num_vertices == 256
        assert g.num_edges == 1024

    def test_deterministic(self):
        a = rmat(8, 4, seed=2)
        b = rmat(8, 4, seed=2)
        assert np.array_equal(a.col_idx, b.col_idx)

    def test_skewed_degrees(self):
        g = rmat(12, 16, seed=3)
        deg = g.out_degrees()
        # R-MAT produces heavy tails: max far above the mean.
        assert deg.max() > 8 * deg.mean()

    def test_rejects_bad_scale(self):
        with pytest.raises(GraphFormatError):
            rmat(0)
        with pytest.raises(GraphFormatError):
            rmat(40)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(GraphFormatError):
            rmat(4, a=0.9, b=0.9, c=0.9)


class TestPowerLaw:
    def test_sizes(self):
        g = power_law(500, 10.0, seed=1)
        assert g.num_vertices == 500
        assert g.num_edges == 5000

    def test_heavy_tail(self):
        g = power_law(2000, 16.0, exponent=1.9, seed=2)
        deg = g.in_degrees()
        assert deg.max() > 6 * deg.mean()

    def test_rejects_bad_params(self):
        with pytest.raises(GraphFormatError):
            power_law(0, 4.0)
        with pytest.raises(GraphFormatError):
            power_law(10, -1.0)
        with pytest.raises(GraphFormatError):
            power_law(10, 4.0, exponent=0.5)


def _normalized_cum(weights) -> np.ndarray:
    """The cumulative weight vector exactly as power_law builds it."""
    cum = np.cumsum(np.asarray(weights, dtype=np.float64))
    cum /= cum[-1]
    return cum


def _edge_draws(cum: np.ndarray) -> np.ndarray:
    """Every guide bucket edge and one ulp either side, every ``cum``
    value and one ulp below it, and 0.0 -- clipped to the sampler's
    domain [0, cum[-1]]."""
    buckets = 2 * cum.shape[0]
    edges = np.arange(buckets) / buckets
    draws = np.concatenate([
        edges,
        np.nextafter(edges, -np.inf),
        np.nextafter(edges, np.inf),
        cum,
        np.nextafter(cum, -np.inf),
        [0.0],
    ])
    return draws[(draws >= 0.0) & (draws <= cum[-1])]


#: Weights that make flat runs in ``cum``: zeros, and denormals that the
#: running sum absorbs.
_TINY_WEIGHTS = st.sampled_from([0.0, 5e-324, 1e-310])


class TestGuideTableSampler:
    """``_inverse_cdf`` is exactly ``np.searchsorted(cum, u)``."""

    @given(
        st.lists(
            st.one_of(_TINY_WEIGHTS, st.floats(1e-6, 1e6)),
            min_size=1, max_size=60,
        ).filter(lambda w: sum(w) > 0),
        st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
        st.sampled_from([1, 3, 7, 1 << 16]),
    )
    @settings(max_examples=300, deadline=None)
    @example([1.0], [], 1 << 16)
    @example([5e-324], [0.5], 1 << 16)
    @example([0.0, 0.0, 1.0, 0.0, 0.0], [], 3)
    @example([1.0, 5e-324, 5e-324, 1.0, 0.0], [], 1)
    @example([2.0, 3.0, 1.0], [], 1 << 16)
    def test_matches_searchsorted(self, weights, extra, chunk):
        cum = _normalized_cum(weights)
        draws = np.concatenate([_edge_draws(cum), np.asarray(extra)])
        with mock.patch.object(generators, "_SAMPLE_CHUNK", chunk):
            got = generators._inverse_cdf(
                cum, generators._guide_table(cum), draws
            )
        assert got.dtype == np.int64
        assert np.array_equal(got, np.searchsorted(cum, draws))

    @given(st.data(), st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_matches_searchsorted_on_edge_snapped_cum(self, data, size):
        """``cum`` values sit on, or one ulp off, guide bucket edges --
        where a draw rounded into the next bucket starts past its answer
        unless it falls back to the binary search."""
        buckets = 2 * size
        snapped = st.builds(
            lambda k, ulps: float(np.nextafter(k / buckets, ulps * np.inf))
            if ulps else k / buckets,
            st.integers(0, buckets - 1), st.sampled_from([-1, 0, 1]),
        )
        points = data.draw(st.lists(
            st.one_of(snapped, st.floats(0.0, 1.0)),
            min_size=size - 1, max_size=size - 1,
        ))
        cum = np.sort(np.clip(np.array(points + [1.0]), 0.0, 1.0))
        draws = _edge_draws(cum)
        got = generators._inverse_cdf(cum, generators._guide_table(cum), draws)
        assert np.array_equal(got, np.searchsorted(cum, draws))

    def test_draw_one_bucket_too_high_falls_back(self):
        # With 3 vertices there are 6 buckets.  One ulp below 5/6 rounds
        # up into bucket 5, whose guide entry (index 1) is past the
        # answer (index 0): only the binary-search fallback gets it right.
        u = np.nextafter(5 / 6, 0.0)
        assert int(u * 6) == 5 and u < 5 / 6
        cum = np.array([u, 5 / 6, 1.0])
        draws = np.array([u])
        got = generators._inverse_cdf(cum, generators._guide_table(cum), draws)
        assert np.array_equal(got, np.searchsorted(cum, draws))
        assert got[0] == 0

    def test_power_law_draws_without_binary_search_on_bulk(self, monkeypatch):
        calls = []
        searchsorted = np.searchsorted

        def spy(haystack, values, *args, **kwargs):
            calls.append((np.size(haystack), np.size(values)))
            return searchsorted(haystack, values, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", spy)
        graph = power_law(3000, 12.0, seed=4)
        on_cum = [size for haystack, size in calls if haystack == 3000]
        # One sorted search builds the guide table; only the rare
        # one-bucket-too-high draws search after that.
        assert on_cum[0] == 2 * 3000
        assert sum(on_cum[1:]) < graph.num_edges // 100


class TestSamplerParity:
    """The guide-table sampler leaves every power-law digest unchanged,
    so run-cache keys and published store artifacts stay valid."""

    @pytest.mark.parametrize("make", [
        # e2ebench cli-run's three power-law cells (seeds at bench seed 1).
        lambda: power_law(24000, 35.0, seed=1016164991),
        lambda: power_law(16000, 35.0, seed=1099128569),
        lambda: power_law(32000, 20.0, seed=1621709874),
        lambda: suites.build_graph("twitter", scale=1 / 4096),
        lambda: suites.build_graph("friendster", scale=1 / 4096),
        lambda: suites.build_graph("host", scale=1 / 4096),
    ], ids=["cli_bfs_24000", "cli_cc_16000", "cli_bfs_32000",
            "twitter", "friendster", "host"])
    def test_digest_matches_searchsorted(self, monkeypatch, make):
        digest = graph_digest(make())
        monkeypatch.setattr(
            generators, "_inverse_cdf",
            lambda cum, guide, draws: np.searchsorted(cum, draws),
        )
        assert graph_digest(make()) == digest


class TestRoadGrid:
    def test_plain_grid_structure(self):
        g = road_grid(4, 3, diagonal_fraction=0.0)
        assert g.num_vertices == 12
        # 2 * (horizontal (w-1)*h + vertical w*(h-1)) directed edges.
        assert g.num_edges == 2 * ((4 - 1) * 3 + 4 * (3 - 1))

    def test_grid_is_symmetric(self):
        g = road_grid(5, 5, diagonal_fraction=0.0)
        edges = set(g.iter_edges())
        assert all((v, u) in edges for u, v in edges)

    def test_interior_degree_is_four(self):
        g = road_grid(5, 5, diagonal_fraction=0.0)
        # Vertex (2, 2) = id 12 is interior.
        assert g.out_degrees()[12] == 4

    def test_shortcuts_added(self):
        plain = road_grid(20, 20, diagonal_fraction=0.0)
        shortcut = road_grid(20, 20, diagonal_fraction=0.05, seed=1)
        assert shortcut.num_edges >= plain.num_edges

    def test_rejects_bad_sizes(self):
        with pytest.raises(GraphFormatError):
            road_grid(0, 5)
        with pytest.raises(GraphFormatError):
            road_grid(5, 5, diagonal_fraction=1.5)


class TestWeights:
    def test_weights_in_range(self, rmat_graph):
        g = with_uniform_weights(rmat_graph, low=1.0, high=10.0, seed=3)
        assert g.weights.min() >= 1.0
        assert g.weights.max() < 10.0
        assert g.weights.shape[0] == g.num_edges

    def test_structure_unchanged(self, rmat_graph):
        g = with_uniform_weights(rmat_graph)
        assert np.array_equal(g.row_ptr, rmat_graph.row_ptr)
        assert np.array_equal(g.col_idx, rmat_graph.col_idx)

    def test_rejects_bad_range(self, rmat_graph):
        with pytest.raises(GraphFormatError):
            with_uniform_weights(rmat_graph, low=5.0, high=2.0)
        with pytest.raises(GraphFormatError):
            with_uniform_weights(rmat_graph, low=-1.0, high=2.0)
