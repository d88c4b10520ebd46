"""Resumable sweep checkpoints: a JSONL manifest of completed keys.

The run cache already makes completed work durable -- every result is
flushed to disk the moment its run finishes.  The checkpoint adds sweep
*identity* on top: a manifest file named by a digest of the sweep's
ordered key list, holding one JSON line per completed key.  An
interrupted sweep leaves its manifest behind; ``repro sweep --resume``
finds it, reports how much already finished, and the runner's
cache-first pass recomputes only the missing keys.  A sweep that
completes cleanly (no failures) removes its manifest.

The manifest is a :class:`~repro.journal.Journal` and idempotent:
marking an already-marked key is a no-op, and each mark is one fsynced
line, so a sweep killed mid-mark loses at most that mark (its run's
result is still in the cache and costs one cache hit, never a
recompute).
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Iterable, Optional, Sequence, Set

from repro.journal import Journal

#: Manifest format version.
CHECKPOINT_SCHEMA = 1


def sweep_id(keys: Sequence[str]) -> str:
    """Stable identity for a sweep: a digest of its sorted unique keys."""
    h = hashlib.sha256()
    for key in sorted(set(keys)):
        h.update(key.encode())
        h.update(b"\n")
    return h.hexdigest()


class SweepCheckpoint:
    """A :class:`~repro.journal.Journal` of one sweep's completed keys."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._journal = Journal(path)
        self._marked: Set[str] = set()
        self._loaded = False

    @classmethod
    def for_keys(cls, cache_root: str, keys: Sequence[str]) -> "SweepCheckpoint":
        """The checkpoint for a sweep identified by its key list."""
        ident = sweep_id(keys)
        path = os.path.join(cache_root, "sweeps", ident + ".jsonl")
        return cls(path)

    @property
    def sweep_id(self) -> str:
        return os.path.splitext(os.path.basename(self.path))[0]

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def completed_keys(self) -> Set[str]:
        """Keys marked complete by this or any previous invocation."""
        self._load()
        return set(self._marked)

    def _load(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        for record in self._journal.replay():
            key = record.get("key")
            if key:
                self._marked.add(key)

    def begin(self, total: int, meta: Optional[Dict[str, object]] = None) -> None:
        """Ensure the manifest exists, writing a header when fresh."""
        self._load()
        if self.exists():
            return
        header = {"schema": CHECKPOINT_SCHEMA, "total": int(total)}
        if meta:
            header.update(meta)
        self._journal.append(header)

    def mark(self, key: str) -> None:
        """Record one completed key (idempotent).

        A manifest removed by :meth:`finish` is recreated rather than
        the mark lost.
        """
        self._load()
        if key in self._marked:
            return
        self._marked.add(key)
        self._journal.append({"key": key})

    def mark_many(self, keys: Iterable[str]) -> None:
        for key in keys:
            self.mark(key)

    def finish(self) -> None:
        """Remove the manifest (the sweep completed with nothing left)."""
        self._journal.close()
        try:
            os.unlink(self.path)
        except OSError:
            pass
        self._marked.clear()
        self._loaded = True
