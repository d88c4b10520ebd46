"""EdgeDeltaBatch: normalization, validation, digests, net collapse."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StreamError
from repro.stream.delta import EdgeDeltaBatch, net_delta


class TestNormalization:
    def test_sorted_and_typed(self):
        batch = EdgeDeltaBatch(inserts=[(3, 1), (0, 2), (3, 0)])
        assert batch.inserts.dtype == np.int64
        assert batch.inserts.tolist() == [[0, 2], [3, 0], [3, 1]]
        assert batch.num_inserts == 3
        assert batch.num_deletes == 0
        assert not batch.empty

    def test_arrays_are_read_only(self):
        batch = EdgeDeltaBatch(inserts=[(0, 1)])
        with pytest.raises(ValueError):
            batch.inserts[0, 0] = 7

    def test_empty_batch(self):
        batch = EdgeDeltaBatch()
        assert batch.empty
        assert batch.max_vertex() == -1

    def test_max_vertex(self):
        batch = EdgeDeltaBatch(inserts=[(1, 9)], deletes=[(4, 1)])
        assert batch.max_vertex() == 9


class TestValidation:
    def test_duplicate_insert_rejected(self):
        with pytest.raises(StreamError, match="duplicate"):
            EdgeDeltaBatch(inserts=[(0, 1), (0, 1)])

    def test_duplicate_delete_rejected(self):
        with pytest.raises(StreamError, match="duplicate"):
            EdgeDeltaBatch(deletes=[(2, 3), (2, 3)])

    def test_negative_vertex_rejected(self):
        with pytest.raises(StreamError, match="negative"):
            EdgeDeltaBatch(inserts=[(0, -1)])

    def test_insert_delete_overlap_rejected(self):
        with pytest.raises(StreamError, match="overlap"):
            EdgeDeltaBatch(inserts=[(0, 1), (1, 2)], deletes=[(1, 2)])

    def test_from_dict_round_trip_and_unknown_fields(self):
        batch = EdgeDeltaBatch(inserts=[(0, 1)], deletes=[(2, 3)])
        again = EdgeDeltaBatch.from_dict(batch.to_dict())
        assert np.array_equal(again.inserts, batch.inserts)
        assert np.array_equal(again.deletes, batch.deletes)
        with pytest.raises(StreamError, match="unknown"):
            EdgeDeltaBatch.from_dict({"inserts": [], "extra": 1})
        with pytest.raises(StreamError, match="object"):
            EdgeDeltaBatch.from_dict([[0, 1]])


class TestDigest:
    def test_digest_ignores_input_order(self):
        a = EdgeDeltaBatch(inserts=[(0, 1), (2, 3)])
        b = EdgeDeltaBatch(inserts=[(2, 3), (0, 1)])
        assert a.digest() == b.digest()

    def test_digest_distinguishes_insert_from_delete(self):
        a = EdgeDeltaBatch(inserts=[(0, 1)])
        b = EdgeDeltaBatch(deletes=[(0, 1)])
        assert a.digest() != b.digest()

    def test_digest_changes_with_content(self):
        a = EdgeDeltaBatch(inserts=[(0, 1)])
        b = EdgeDeltaBatch(inserts=[(0, 2)])
        assert a.digest() != b.digest()


class TestNetDelta:
    def test_insert_then_delete_cancels(self):
        batches = [
            EdgeDeltaBatch(inserts=[(0, 1), (2, 3)]),
            EdgeDeltaBatch(deletes=[(0, 1)]),
        ]
        ins, dels = net_delta(batches)
        assert ins.tolist() == [[2, 3]]
        assert dels.shape == (0, 2)

    def test_delete_then_reinsert_cancels(self):
        batches = [
            EdgeDeltaBatch(deletes=[(4, 5)]),
            EdgeDeltaBatch(inserts=[(4, 5)]),
        ]
        ins, dels = net_delta(batches)
        assert ins.shape == (0, 2)
        assert dels.shape == (0, 2)

    def test_disjoint_batches_union(self):
        batches = [
            EdgeDeltaBatch(inserts=[(0, 1)]),
            EdgeDeltaBatch(inserts=[(1, 2)], deletes=[(3, 4)]),
        ]
        ins, dels = net_delta(batches)
        assert ins.tolist() == [[0, 1], [1, 2]]
        assert dels.tolist() == [[3, 4]]
