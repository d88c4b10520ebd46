"""Incremental PageRank does less work than cold, counted in pushes.

A work bound instead of a wall-clock gate, on the BFS work-bound
test's setup: after each 8-edge insert-only batch on a resident
rmat:14:8, the repaired state needs at most 0.6x the vertex pushes of
a cold push on the merged graph (0.33-0.46x at this seed), and its
answer stays within the equivalence suite's tolerance of cold.
"""

from __future__ import annotations

import numpy as np

from repro.graph.generators import rmat
from repro.stream.delta import net_delta
from repro.stream.incremental import (
    PR_DAMPING,
    cold_answer,
    incremental_update,
    push_residuals,
    seed_state,
)
from repro.stream.overlay import DeltaOverlayGraph

from tests.stream.test_equivalence import PR_ATOL, random_batch


def test_small_insert_batches_push_less_than_cold():
    base = rmat(14, 8, seed=5)
    overlay = DeltaOverlayGraph(base, base_digest="test")
    state = seed_state("pr", overlay)[0]
    rng = np.random.default_rng(11)
    n = base.num_vertices
    for _ in range(6):
        overlay.apply(random_batch(overlay, rng, 8, 0))
        ins, dels = net_delta(overlay.batches[state.seq:])
        answer, stats = incremental_update("pr", overlay, state, ins, dels)
        merged = overlay.materialize()
        _, cold_pushes = push_residuals(
            merged,
            np.zeros(n),
            np.full(n, (1.0 - PR_DAMPING) / n),
        )
        assert stats["fallback"] == 0
        assert stats["pushes"] <= 0.6 * cold_pushes, (
            stats["pushes"], cold_pushes
        )
        np.testing.assert_allclose(
            answer, cold_answer("pr", merged), atol=PR_ATOL, rtol=0
        )
