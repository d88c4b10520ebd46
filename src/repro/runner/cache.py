"""Content-addressed on-disk cache of completed simulation runs.

Every cache entry is one pickled :class:`~repro.core.metrics.RunResult`
stored under a SHA-256 key that digests everything determining the run's
outcome: the cache schema version, the package version (simulator
semantics can change between PRs), the system kind, the full config (as
a dataclass field dict), the graph's actual CSR arrays, the workload and
its kwargs, the source, the placement, and the quantum quota.  Any
change to any input yields a different key; stale entries are never
returned, only orphaned.

Layout: ``<root>/<key[:2]>/<key>.pkl`` -- two-level fan-out keeps
directories small on large sweeps.  Files are written to a temp name and
``os.replace``d, so concurrent writers (sweep children, parallel pytest)
can never expose a torn entry.  Each file carries a magic tag and a
payload digest; a corrupt or truncated entry fails verification, is
unlinked, and reads as a miss (the run is recomputed).

Eviction is explicit: :meth:`RunCache.prune` drops least-recently-used
entries past a byte budget (``REPRO_CACHE_MAX_BYTES`` wires it into
:class:`~repro.runner.sweep.SweepRunner`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from typing import Optional

from repro.core.metrics import RunResult
from repro.obs.counters import FAULT_COUNTERS
from repro.graph.csr import CSRGraph
from repro.graph.partition import VertexPlacement
from repro.runner.spec import GraphSpec, RunSpec

#: Bump when the digest recipe or entry format changes.
CACHE_SCHEMA = 2
#: Bump when a session version digest may name a different graph than
#: before (2: a re-insert after compaction restores every copy of a
#: multigraph pair); it keys session queries only.
SESSION_QUERY_SCHEMA = 2
_MAGIC = b"RNC1"


def default_cache_dir() -> str:
    """``REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-nova``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-nova")


#: Artifact identity -> digest memo for store-backed graphs.  Keyed by
#: the memmap file paths (content-addressed and immutable once
#: published), so an N-cell sweep over one store graph hashes the CSR
#: arrays once instead of N times.  Bounded LRU; in-memory graphs are
#: never memoized (nothing pins their bytes immutable).
_DIGEST_MEMO: "OrderedDict[tuple, str]" = OrderedDict()
_DIGEST_MEMO_CAPACITY = 64


def _backing_file(array) -> Optional[str]:
    """The mmap file behind an array, walking view chains, else None.

    :class:`CSRGraph` wraps the store's ``np.memmap`` arrays in
    ``ascontiguousarray`` views, so the ``.filename`` lives on a
    ``.base`` ancestor rather than the array itself.
    """
    seen = 0
    while array is not None and seen < 8:
        filename = getattr(array, "filename", None)
        if filename:
            return str(filename)
        array = getattr(array, "base", None)
        seen += 1
    return None


def _artifact_identity(graph: CSRGraph) -> Optional[tuple]:
    """A hashable identity for a store-backed (memmap) graph, else None.

    Store artifacts are read-only ``np.memmap`` arrays whose
    ``.filename`` points into the content-addressed store: same paths,
    same bytes.  Any array without a backing file (in-memory graphs,
    zero-length arrays loaded eagerly) disqualifies the graph from
    memoization -- correctness first, the memo is only an optimization.
    """
    arrays = [graph.row_ptr, graph.col_idx]
    if graph.has_weights:
        arrays.append(graph.weights)
    names = []
    for array in arrays:
        filename = _backing_file(array)
        if filename is None:
            return None
        names.append(filename)
    return (graph.num_vertices, graph.num_edges, tuple(names))


def graph_digest(graph: CSRGraph) -> str:
    """SHA-256 over the graph's CSR arrays (shape- and weight-aware).

    Store-backed graphs memoize the digest by artifact identity (the
    published files are immutable), so repeated digests of the same
    multi-GB artifact cost one dictionary lookup instead of re-reading
    and re-hashing the arrays.  The digest itself is byte-identical
    either way: memoized entries are computed by this same recipe on
    first sight.
    """
    identity = _artifact_identity(graph)
    if identity is not None:
        memoized = _DIGEST_MEMO.get(identity)
        if memoized is not None:
            _DIGEST_MEMO.move_to_end(identity)
            FAULT_COUNTERS.increment("cache.digest_memo_hits")
            return memoized
    h = hashlib.sha256()
    h.update(f"v={graph.num_vertices};e={graph.num_edges};".encode())
    h.update(graph.row_ptr.tobytes())
    h.update(graph.col_idx.tobytes())
    if graph.has_weights:
        h.update(graph.weights.tobytes())
    digest = h.hexdigest()
    if identity is not None:
        _DIGEST_MEMO[identity] = digest
        while len(_DIGEST_MEMO) > _DIGEST_MEMO_CAPACITY:
            _DIGEST_MEMO.popitem(last=False)
    return digest


#: Config object -> token memo.  ``dataclasses.asdict`` walks every
#: field recursively and dominates :func:`spec_key` on large grids that
#: share one config instance.  Only *frozen* dataclasses are memoized
#: (mutable configs could change between calls); entries hold a strong
#: reference to the config so its ``id()`` cannot be recycled.
_CONFIG_TOKEN_MEMO: "OrderedDict[int, tuple]" = OrderedDict()
_CONFIG_TOKEN_CAPACITY = 32


def _config_token(config) -> str:
    if config is None:
        return "default"
    if dataclasses.is_dataclass(config):
        frozen = type(config).__dataclass_params__.frozen
        if frozen:
            memoized = _CONFIG_TOKEN_MEMO.get(id(config))
            if memoized is not None and memoized[0] is config:
                _CONFIG_TOKEN_MEMO.move_to_end(id(config))
                return memoized[1]
        token = f"{type(config).__name__}:{dataclasses.asdict(config)!r}"
        if frozen:
            _CONFIG_TOKEN_MEMO[id(config)] = (config, token)
            while len(_CONFIG_TOKEN_MEMO) > _CONFIG_TOKEN_CAPACITY:
                _CONFIG_TOKEN_MEMO.popitem(last=False)
        return token
    return f"{type(config).__name__}:{config!r}"


def _placement_token(placement, placement_seed: int) -> str:
    if isinstance(placement, VertexPlacement):
        h = hashlib.sha256(placement.owner.tobytes())
        return f"placement:{placement.strategy}:{h.hexdigest()}"
    return f"strategy:{placement}:seed={placement_seed}"


def spec_key(spec: RunSpec) -> str:
    """The content-addressed cache key for one run spec.

    The graph contributes through its built arrays, so a
    :class:`GraphSpec` recipe and the :class:`CSRGraph` it produces map
    to the same entry.
    """
    import repro

    if getattr(spec, "graph_digest", None):
        # Streaming session specs carry their version digest: the graph
        # is resident at the service and must not be rebuilt to key.
        graph_part = f"session{SESSION_QUERY_SCHEMA}:{spec.graph_digest}"
    else:
        graph_part = graph_digest(spec.resolve_graph())
    kwargs = sorted(spec.workload_kwargs.items())
    parts = [
        f"schema={CACHE_SCHEMA}",
        f"version={repro.__version__}",
        f"system={spec.system}",
        f"workload={spec.workload}",
        f"kwargs={kwargs!r}",
        f"source={spec.source!r}",
        f"max_quanta={spec.max_quanta}",
        f"config={_config_token(spec.config)}",
        f"obs={_config_token(spec.obs)}",
        f"graph={graph_part}",
        f"{_placement_token(spec.placement, spec.placement_seed)}",
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


class RunCache:
    """A directory of verified, atomically written run results."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_cache_dir()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".pkl")

    def contains(self, key: str) -> bool:
        """Cheap existence probe: no read, no verification, no LRU touch.

        Fleet coordinators use this to check whether a worker's
        completed result has landed in the shared cache directory
        before paying for a full verified :meth:`load`.
        """
        return os.path.exists(self._path(key))

    def load(self, key: str) -> Optional[RunResult]:
        """Return the cached result, or ``None`` on miss or corruption.

        Corrupt entries (bad magic, digest mismatch, unpicklable
        payload) are unlinked so the recomputed result can replace them.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as f:
                blob = f.read()
        except OSError:
            return None
        try:
            magic, digest, payload = blob[:4], blob[4:36], blob[36:]
            if magic != _MAGIC or len(digest) != 32:
                raise ValueError("bad header")
            if hashlib.sha256(payload).digest() != digest:
                raise ValueError("payload digest mismatch")
            result = pickle.loads(payload)
            if not isinstance(result, RunResult):
                raise ValueError("unexpected payload type")
        except Exception:
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        try:
            os.utime(path)  # LRU touch for prune()
        except OSError:
            # A concurrent prune() unlinked the entry between the read
            # and the touch; the bytes are already in hand, so the
            # loaded result is still valid.
            pass
        return result

    def store(self, key: str, result: RunResult) -> str:
        """Atomically persist one result; returns the entry path."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        blob = _MAGIC + hashlib.sha256(payload).digest() + payload
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".pkl"
        )
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def entries(self):
        """Yield ``(path, size_bytes, mtime)`` for every cache entry."""
        for dirpath, _, filenames in os.walk(self.root):
            for name in filenames:
                if not name.endswith(".pkl") or name.startswith(".tmp-"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                yield path, stat.st_size, stat.st_mtime

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self.entries())

    def prune(self, max_bytes: int) -> int:
        """Drop least-recently-used entries until under ``max_bytes``.

        Returns the number of entries removed.
        """
        items = sorted(self.entries(), key=lambda item: item[2])
        total = sum(size for _, size, _ in items)
        removed = 0
        for path, size, _ in items:
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            removed += 1
        return removed
