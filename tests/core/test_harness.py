"""Graph500-style source sampling (``repro.runner.spec.sample_sources``),
which ``repro sweep --sources N`` draws its sources with."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.runner.spec import sample_sources


class TestSourceSampling:
    def test_sources_have_outgoing_edges(self, rmat_graph):
        sources = sample_sources(rmat_graph, 8, seed=1)
        assert (rmat_graph.out_degrees()[sources] > 0).all()

    def test_deterministic(self, rmat_graph):
        a = sample_sources(rmat_graph, 4, seed=3)
        b = sample_sources(rmat_graph, 4, seed=3)
        assert np.array_equal(a, b)

    def test_unrestricted(self, tiny_graph):
        sources = sample_sources(tiny_graph, 3, require_outgoing=False)
        assert sources.shape == (3,)

    def test_validation(self, tiny_graph):
        with pytest.raises(ConfigError):
            sample_sources(tiny_graph, 0)

    def test_no_outgoing_anywhere(self):
        from repro.graph.csr import CSRGraph

        g = CSRGraph.from_edges(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), 4
        )
        with pytest.raises(ConfigError):
            sample_sources(g, 2)
