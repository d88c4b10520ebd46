"""Content-addressed on-disk cache of completed simulation runs.

Every cache entry is one pickled :class:`~repro.core.metrics.RunResult`
stored under a SHA-256 key that digests everything determining the run's
outcome: the cache schema version, the package version (simulator
semantics can change between PRs), the system kind, the full config (as
a dataclass field dict), the graph's CSR digest, the workload and its
kwargs, the source, the placement, and the quantum quota.  Any change
to any input yields a different key; stale entries are never returned,
only orphaned.

Layout: ``<root>/<key[:2]>/<key>.pkl`` -- two-level fan-out keeps
directories small on large sweeps.  Files are written to a temp name and
``os.replace``d, so concurrent writers (sweep children, parallel pytest)
can never expose a torn entry.  Each file carries a magic tag and a
SHA-256 over everything after it; a corrupt or truncated entry fails
verification, is unlinked, and reads as a miss (the run is recomputed).
An entry opens with a small JSON header holding what ``repro run``
prints (:meth:`~repro.core.metrics.RunResult.summary_lines`), so
:meth:`RunCache.load_summary` answers a hit without unpickling the
result.

Eviction is explicit: :meth:`RunCache.prune` drops least-recently-used
entries past a byte budget (``REPRO_CACHE_MAX_BYTES`` wires it into
:class:`~repro.runner.sweep.SweepRunner`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections import OrderedDict
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.runner.spec import GraphSpec, RunSpec

if TYPE_CHECKING:
    from repro.core.metrics import RunResult
    from repro.graph.csr import CSRGraph

#: Bump when the digest recipe or entry format changes.
CACHE_SCHEMA = 2
#: Bump when a session version digest may name a different graph than
#: before (2: a re-insert after compaction restores every copy of a
#: multigraph pair); it keys session queries only.
SESSION_QUERY_SCHEMA = 2
#: Entry layout: magic, SHA-256 of the rest, the header's length (4
#: bytes, big-endian), the header (a JSON list of the lines ``repro
#: run`` prints), the pickled result.  An entry of another magic (older
#: code wrote ``RNC1``, without the header) reads as a corrupt one: it
#: is unlinked and the run recomputed.
_MAGIC = b"RNC2"


def default_cache_dir() -> str:
    """``REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-nova``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-nova")


def graph_digest(graph: CSRGraph) -> str:
    """SHA-256 over the graph's CSR arrays: :meth:`CSRGraph.digest`.

    A graph mapped from the store carries the digest recorded at
    publish; any other graph is hashed.  A :class:`GraphSpec` recipe
    keys through :meth:`GraphSpec.facts` instead, to the same value.
    """
    return graph.digest()


#: Frozen config -> token memo, keyed by the config's value as its repr
#: spells it.  ``dataclasses.asdict`` walks every field recursively and
#: dominates :func:`spec_key` on large grids, whose cells each lower a
#: fresh but equal config.  Dataclass equality would not do as the key:
#: it takes ``num_gpns=2`` and ``num_gpns=2.0`` as equal, and their
#: tokens differ.  Mutable configs could change between calls and are
#: never memoized.
_CONFIG_TOKEN_MEMO: "OrderedDict[str, str]" = OrderedDict()
_CONFIG_TOKEN_CAPACITY = 32


def _config_token(config) -> str:
    if config is None:
        return "default"
    if dataclasses.is_dataclass(config):
        frozen = type(config).__dataclass_params__.frozen
        if frozen:
            value = repr(config)
            token = _CONFIG_TOKEN_MEMO.get(value)
            if token is not None:
                _CONFIG_TOKEN_MEMO.move_to_end(value)
                return token
        token = f"{type(config).__name__}:{dataclasses.asdict(config)!r}"
        if frozen:
            _CONFIG_TOKEN_MEMO[value] = token
            while len(_CONFIG_TOKEN_MEMO) > _CONFIG_TOKEN_CAPACITY:
                _CONFIG_TOKEN_MEMO.popitem(last=False)
        return token
    return f"{type(config).__name__}:{config!r}"


def _placement_token(placement, placement_seed: int) -> str:
    if isinstance(placement, str):
        return f"strategy:{placement}:seed={placement_seed}"
    # A prebuilt VertexPlacement: key on where it puts every vertex.
    h = hashlib.sha256(placement.owner.tobytes())
    return f"placement:{placement.strategy}:{h.hexdigest()}"


def spec_key(spec: RunSpec) -> str:
    """The content-addressed cache key for one run spec.

    The graph contributes its CSR digest, so a :class:`GraphSpec`
    recipe and the :class:`CSRGraph` it produces map to the same entry;
    a recipe reads the digest from its facts, without mapping the graph.
    """
    import repro

    if getattr(spec, "graph_digest", None):
        # Streaming session specs carry their version digest: the graph
        # is resident at the service and must not be rebuilt to key.
        graph_part = f"session{SESSION_QUERY_SCHEMA}:{spec.graph_digest}"
    elif isinstance(spec.graph, GraphSpec):
        graph_part = spec.graph.facts().csr_digest
    else:
        graph_part = spec.graph.digest()
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

        ``repro sweep --resume`` counts finished runs with it, without
        paying for a full verified :meth:`load` per key.
        """
        return os.path.exists(self._path(key))

    def load(self, key: str) -> Optional[RunResult]:
        """Return the cached result, or ``None`` on miss or corruption.

        Corrupt entries (bad magic, digest mismatch, unpicklable
        payload) are unlinked so the recomputed result can replace them.
        """
        import pickle

        from repro.core.metrics import RunResult

        entry = self._read(key)
        if entry is None:
            return None
        try:
            result = pickle.loads(entry[1])
            if not isinstance(result, RunResult):
                raise ValueError("unexpected payload type")
        except Exception:
            self._discard(key)
            return None
        return result

    def load_summary(self, key: str) -> Optional[List[str]]:
        """The entry's verified header, without unpickling the result:
        the lines ``repro run`` prints
        (:meth:`~repro.core.metrics.RunResult.summary_lines`).  ``None``
        on a miss or a corrupt entry.
        """
        entry = self._read(key)
        if entry is None:
            return None
        try:
            lines = json.loads(entry[0])
            if not isinstance(lines, list):
                raise ValueError("unexpected header type")
        except ValueError:
            self._discard(key)
            return None
        return lines

    def _read(self, key: str) -> Optional[Tuple[bytes, memoryview]]:
        """``(header, pickle)`` of a verified entry.  ``None`` on a miss,
        and on a corrupt entry, which is unlinked.  The pickle is a view
        into the bytes read: slicing a multi-MB result out would copy
        it."""
        path = self._path(key)
        try:
            with open(path, "rb") as f:
                blob = f.read()
        except OSError:
            return None
        magic, digest, body = blob[:4], blob[4:36], memoryview(blob)[36:]
        try:
            if magic != _MAGIC or len(digest) != 32:
                raise ValueError("bad header")
            if hashlib.sha256(body).digest() != digest:
                raise ValueError("payload digest mismatch")
            size = int.from_bytes(body[:4], "big")
            header, body = bytes(body[4 : 4 + size]), body[4 + size :]
        except ValueError:
            self._discard(key)
            return None
        try:
            os.utime(path)  # LRU touch for prune()
        except OSError:
            # A concurrent prune() unlinked the entry between the read
            # and the touch; the bytes are already in hand, so the
            # loaded result is still valid.
            pass
        return header, body

    def _discard(self, key: str) -> None:
        try:
            os.unlink(self._path(key))
        except OSError:
            pass

    def store(self, key: str, result: RunResult) -> str:
        """Atomically persist one result; returns the entry path."""
        import pickle
        import tempfile

        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = json.dumps(result.summary_lines()).encode()
        body = b"".join((
            len(header).to_bytes(4, "big"),
            header,
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
        ))
        blob = _MAGIC + hashlib.sha256(body).digest() + body
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
