"""Validated edge-delta batches for streaming graph updates.

An :class:`EdgeDeltaBatch` is the unit of mutation in the streaming
subsystem: a set of edge insertions plus a set of edge deletions,
normalized (lexicographically sorted, deduplicated) and validated at
construction so every downstream consumer -- the
:class:`~repro.stream.overlay.DeltaOverlayGraph`, the session journal,
the incremental workloads -- can treat it as canonical data.  A batch
is pure *intent*: whether each insert/delete is legal against a
concrete graph is checked at apply time by the overlay.

Batches are content-addressed: :meth:`EdgeDeltaBatch.digest` hashes the
normalized arrays, and the session layer chains these digests into the
per-version graph digest (``v_{n+1} = sha256(v_n : batch_digest)``), so
two sessions that apply the same deltas to the same base graph land on
the same version digest -- and therefore the same run-cache keys.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import StreamError

__all__ = ["EdgeDeltaBatch"]


def _normalize_pairs(pairs: Iterable[Sequence[int]], what: str) -> np.ndarray:
    """Coerce an iterable of ``(u, v)`` pairs into a sorted (N, 2) array.

    Rejects negative endpoints and duplicate pairs; an empty input
    yields a (0, 2) int64 array.
    """
    rows = [(int(u), int(v)) for u, v in pairs]
    if not rows:
        return np.empty((0, 2), dtype=np.int64)
    array = np.asarray(rows, dtype=np.int64)
    if array.ndim != 2 or array.shape[1] != 2:
        raise StreamError(f"{what} must be (u, v) pairs")
    if (array < 0).any():
        raise StreamError(f"{what} contain negative vertex ids")
    order = np.lexsort((array[:, 1], array[:, 0]))
    array = array[order]
    if array.shape[0] > 1:
        same = np.all(array[1:] == array[:-1], axis=1)
        if same.any():
            u, v = array[1:][same][0]
            raise StreamError(f"duplicate {what[:-1]} ({u}, {v}) in batch")
    return array


class EdgeDeltaBatch:
    """One normalized, validated set of edge insertions and deletions.

    ``inserts`` and ``deletes`` are iterables of ``(src, dst)`` pairs.
    Within a batch each pair may appear at most once per set, and the
    two sets must be disjoint (insert-then-delete inside one batch is a
    no-op the caller should have elided, and its apply semantics would
    be ambiguous).  The normalized arrays are exposed read-only.
    """

    def __init__(
        self,
        inserts: Iterable[Sequence[int]] = (),
        deletes: Iterable[Sequence[int]] = (),
    ) -> None:
        self.inserts = _normalize_pairs(inserts, "inserts")
        self.deletes = _normalize_pairs(deletes, "deletes")
        if self.inserts.size and self.deletes.size:
            merged = np.concatenate([self.inserts, self.deletes])
            unique = np.unique(merged, axis=0)
            if unique.shape[0] != merged.shape[0]:
                raise StreamError(
                    "insert and delete sets overlap within one batch"
                )
        self.inserts.setflags(write=False)
        self.deletes.setflags(write=False)

    # -- introspection --------------------------------------------------

    @property
    def num_inserts(self) -> int:
        return int(self.inserts.shape[0])

    @property
    def num_deletes(self) -> int:
        return int(self.deletes.shape[0])

    @property
    def empty(self) -> bool:
        return self.num_inserts == 0 and self.num_deletes == 0

    def max_vertex(self) -> int:
        """Largest endpoint referenced, or -1 for an empty batch."""
        best = -1
        for array in (self.inserts, self.deletes):
            if array.size:
                best = max(best, int(array.max()))
        return best

    def digest(self) -> str:
        """SHA-256 over the normalized arrays (content address)."""
        h = hashlib.sha256()
        h.update(f"i={self.num_inserts};d={self.num_deletes};".encode())
        h.update(self.inserts.tobytes())
        h.update(self.deletes.tobytes())
        return h.hexdigest()

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "inserts": self.inserts.tolist(),
            "deletes": self.deletes.tolist(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EdgeDeltaBatch":
        if not isinstance(data, Mapping):
            raise StreamError(
                f"delta batch must be an object, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - {"inserts", "deletes"})
        if unknown:
            raise StreamError(
                f"unknown delta-batch field(s): {', '.join(unknown)}"
            )
        try:
            return cls(
                inserts=data.get("inserts") or (),
                deletes=data.get("deletes") or (),
            )
        except (TypeError, ValueError) as exc:
            raise StreamError(f"bad delta batch: {exc}") from None

    def __repr__(self) -> str:
        return (
            f"EdgeDeltaBatch(+{self.num_inserts} edges, "
            f"-{self.num_deletes} edges)"
        )


def net_delta(
    batches: Sequence[EdgeDeltaBatch],
) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse a batch sequence into net ``(inserts, deletes)`` arrays.

    Relative to the graph *before the first batch*: an edge inserted
    then deleted (or vice versa) across the sequence cancels out.  The
    incremental workloads use this to catch a stale workload state up
    to the overlay's current version in one relaxation pass instead of
    one pass per batch.
    """
    inserted: set = set()
    deleted: set = set()
    for batch in batches:
        for u, v in batch.inserts:
            pair = (int(u), int(v))
            if pair in deleted:
                deleted.discard(pair)
            else:
                inserted.add(pair)
        for u, v in batch.deletes:
            pair = (int(u), int(v))
            if pair in inserted:
                inserted.discard(pair)
            else:
                deleted.add(pair)

    def _as_array(pairs: set) -> np.ndarray:
        if not pairs:
            return np.empty((0, 2), dtype=np.int64)
        array = np.asarray(sorted(pairs), dtype=np.int64)
        return array

    return _as_array(inserted), _as_array(deleted)
