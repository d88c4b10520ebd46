"""Content-addressed on-disk graph artifact store: build once, mmap everywhere.

Every sweep worker and service job used to materialize its graph from a
:class:`~repro.runner.spec.GraphSpec` recipe, memoized *per process* --
so N processes over one suite graph paid N redundant builds, and
nothing larger than RAM could run at all.  Following PartitionedVC's
partitioned external-memory design (PAPERS.md), this store makes the
graph build a one-time cost per host:

- **Artifacts** live under ``<root>/<digest[:2]>/<digest>/`` where the
  digest is a SHA-256 over the recipe (spec string, seed, scale,
  weighted/symmetrized flags, store schema, package version -- and for
  file-backed specs, the source file's size+mtime).  Each artifact
  directory holds ``row_ptr.npy`` / ``col_idx.npy`` (and ``weights.npy``
  for weighted graphs) as raw, 64-byte-aligned ``.npy`` files plus a
  ``manifest.json`` with magic, schema, per-array dtype/shape, and
  build provenance (package version, build seconds, creation time).
- **Loads** are zero-copy: arrays come back as read-only ``np.memmap``
  views wrapped in a :class:`~repro.graph.csr.CSRGraph` (structural
  validation is skipped -- the arrays were validated once at publish
  time and the manifest pins their shapes/dtypes).  The kernel page
  cache dedups the bytes across every process on the host, and graphs
  larger than RAM fault pages in on demand.
- **Publish** is atomic: arrays and manifest are written into a hidden
  temp directory and ``os.rename``d into place, so readers can never
  observe a torn artifact.  Concurrent builders serialize on a
  per-digest ``fcntl`` file lock: one process builds, the rest block
  and then map the published result.
- **Eviction** mirrors :class:`~repro.runner.cache.RunCache`:
  :meth:`GraphStore.prune` drops least-recently-mapped artifacts past a
  byte budget (``REPRO_GRAPH_STORE_MAX_BYTES`` applies it after each
  build), and a corrupt artifact (bad manifest, truncated array) is
  evicted on load and reads as a miss.

Environment knobs:

- ``REPRO_GRAPH_STORE``: set to ``0`` / ``false`` / ``off`` to bypass
  the store entirely (every build happens in process memory).
- ``REPRO_GRAPH_STORE_DIR``: artifact root (default:
  ``<REPRO_CACHE_DIR or ~/.cache/repro-nova>/graphs``).
- ``REPRO_GRAPH_STORE_MAX_BYTES``: LRU size cap applied after builds.

Counters (``graph_store.*`` in :data:`~repro.obs.counters.FAULT_COUNTERS`):
``hits``, ``misses``, ``builds``, ``build_ms``, ``lock_waits``,
``evictions``, ``corrupt``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import threading
import time
from typing import Any, Dict, Iterable, Iterator, Optional, Set, Tuple, Union

import numpy as np

from repro.env import env_int
from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph
from repro.obs.counters import FAULT_COUNTERS
from repro.obs.tracing import trace_event

try:  # POSIX cross-process locking; degrades to best-effort elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

#: Bump when the digest recipe or artifact layout changes.
STORE_SCHEMA = 1

MANIFEST_MAGIC = "repro-graph-store-v1"
MANIFEST_NAME = "manifest.json"

#: Array files an artifact may contain, in manifest order.
ARRAY_NAMES = ("row_ptr", "col_idx", "weights")


def default_store_dir() -> str:
    """``REPRO_GRAPH_STORE_DIR`` if set, else ``<cache root>/graphs``."""
    env = os.environ.get("REPRO_GRAPH_STORE_DIR")
    if env:
        return env
    cache = os.environ.get("REPRO_CACHE_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "repro-nova"
    )
    return os.path.join(cache, "graphs")


def store_enabled() -> bool:
    """False when ``REPRO_GRAPH_STORE`` opts out of the artifact store."""
    value = os.environ.get("REPRO_GRAPH_STORE", "1").strip().lower()
    return value not in ("0", "false", "no", "off")


#: Digests pinned by live consumers (resident graph sessions) that
#: :meth:`GraphStore.prune` must never evict.  A freshly compacted
#: session artifact would otherwise race the LRU sweep: the publish and
#: the prune happen in different call stacks, so the single ``protect=``
#: argument cannot cover it.  Refcounted so two sessions pinning the
#: same base graph unpin independently.
_PROTECTED_DIGESTS: Dict[str, int] = {}
_PROTECTED_LOCK = threading.Lock()


def _unlock_in_child() -> None:
    # A forked sweep child must not inherit the lock held by another
    # thread of its parent at the fork: it would hang in its first prune.
    global _PROTECTED_LOCK
    _PROTECTED_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_unlock_in_child)


def protect_digest(digest: str) -> None:
    """Pin ``digest`` against pruning until :func:`unprotect_digest`."""
    with _PROTECTED_LOCK:
        _PROTECTED_DIGESTS[digest] = _PROTECTED_DIGESTS.get(digest, 0) + 1


def unprotect_digest(digest: str) -> None:
    """Drop one pin on ``digest`` (no-op when it is not pinned)."""
    with _PROTECTED_LOCK:
        count = _PROTECTED_DIGESTS.get(digest, 0) - 1
        if count > 0:
            _PROTECTED_DIGESTS[digest] = count
        else:
            _PROTECTED_DIGESTS.pop(digest, None)


def protected_digests() -> Set[str]:
    """Snapshot of currently pinned digests."""
    with _PROTECTED_LOCK:
        return set(_PROTECTED_DIGESTS)


def _source_token(spec: str) -> str:
    """Provenance token for file-backed specs (path with no ``kind:``).

    A generator spec is fully determined by its string + seed; a file
    path is not -- the file can change under the same name -- so its
    size and mtime join the digest and a rewritten file reads as a new
    artifact rather than a stale hit.
    """
    if ":" in spec:
        return "src=generator"
    try:
        stat = os.stat(spec)
    except OSError:
        return "src=missing"
    return f"src={stat.st_size}:{stat.st_mtime_ns}"


def spec_digest(spec: Any) -> str:
    """SHA-256 of a :class:`~repro.runner.spec.GraphSpec` recipe.

    Duck-typed (any object with the GraphSpec fields) so this module
    never imports :mod:`repro.runner` -- the runner imports us.
    """
    import repro

    parts = [
        f"schema={STORE_SCHEMA}",
        f"version={repro.__version__}",
        f"spec={spec.spec}",
        f"seed={spec.seed}",
        f"scale={spec.scale!r}",
        f"weighted={spec.weighted}",
        f"symmetrized={spec.symmetrized}",
        f"weight_seed={spec.weight_seed}",
        _source_token(spec.spec),
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _load_array(
    path: str, dtype: str, shape: Tuple[int, ...]
) -> np.ndarray:
    """Memory-map one published ``.npy`` file read-only.

    Zero-length arrays cannot be mmapped (POSIX forbids empty maps), so
    they load eagerly -- there are no bytes to share anyway.
    """
    if int(np.prod(shape)) == 0:
        array = np.load(path, allow_pickle=False)
    else:
        array = np.load(path, mmap_mode="r", allow_pickle=False)
    if str(array.dtype) != dtype or tuple(array.shape) != tuple(shape):
        raise GraphFormatError(
            f"{path}: expected {dtype}{shape}, found "
            f"{array.dtype}{array.shape}"
        )
    return array


class GraphStore:
    """A directory of verified, atomically published graph artifacts."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_store_dir()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def _dir(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], digest)

    def _manifest_path(self, digest: str) -> str:
        return os.path.join(self._dir(digest), MANIFEST_NAME)

    def _lock_path(self, digest: str) -> str:
        return os.path.join(self.root, "locks", digest + ".lock")

    # ------------------------------------------------------------------
    # Locking
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def _build_lock(self, digest: str) -> Iterator[None]:
        """Cross-process exclusive lock serializing one digest's build.

        Lock files live outside the artifact directories so eviction
        never unlinks a held lock.  On platforms without ``fcntl`` the
        lock degrades to a no-op: concurrent builders may both build,
        but the atomic rename publish still guarantees an untorn
        artifact (the loser's rename fails and its copy is discarded).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        path = self._lock_path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "a+b") as handle:
            try:
                fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                FAULT_COUNTERS.increment("graph_store.lock_waits")
                trace_event("graph_store.lock_wait", digest=digest)
                fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------

    def load(self, digest: str) -> Optional[CSRGraph]:
        """Map one artifact, or ``None`` on miss or corruption.

        Corrupt artifacts (unparseable manifest, wrong magic/schema,
        missing or size-mismatched arrays) are evicted so the next
        build can republish them.  Structural CSR validation is skipped
        (``validate=False``): the arrays were validated at publish time
        and re-walking them here would fault in every page of a graph
        we specifically want to load lazily.
        """
        manifest = self._read_manifest(digest)
        if manifest is None:
            return None
        directory = self._dir(digest)
        try:
            arrays: Dict[str, Optional[np.ndarray]] = {}
            for name in ARRAY_NAMES:
                meta = manifest["arrays"].get(name)
                if meta is None:
                    arrays[name] = None
                    continue
                arrays[name] = _load_array(
                    os.path.join(directory, name + ".npy"),
                    meta["dtype"],
                    tuple(meta["shape"]),
                )
            if arrays["row_ptr"] is None or arrays["col_idx"] is None:
                raise GraphFormatError("manifest missing required arrays")
            graph = CSRGraph(
                arrays["row_ptr"],
                arrays["col_idx"],
                arrays["weights"],
                validate=False,
            )
        except Exception:
            self._evict(digest, reason="corrupt")
            return None
        try:
            os.utime(self._manifest_path(digest))  # LRU touch for prune()
        except OSError:
            pass
        return graph

    def _read_manifest(self, digest: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self._manifest_path(digest), encoding="utf-8") as f:
                manifest = json.load(f)
        except OSError:
            return None  # plain miss: nothing published yet
        except json.JSONDecodeError:
            self._evict(digest, reason="corrupt")
            return None
        if (
            not isinstance(manifest, dict)
            or manifest.get("magic") != MANIFEST_MAGIC
            or manifest.get("schema") != STORE_SCHEMA
            or not isinstance(manifest.get("arrays"), dict)
        ):
            self._evict(digest, reason="corrupt")
            return None
        return manifest

    def _evict(self, digest: str, reason: str = "evicted") -> None:
        shutil.rmtree(self._dir(digest), ignore_errors=True)
        FAULT_COUNTERS.increment(f"graph_store.{reason}")
        trace_event("graph_store.evict", digest=digest, reason=reason)

    # ------------------------------------------------------------------
    # Publish
    # ------------------------------------------------------------------

    def put(
        self,
        digest: str,
        graph: CSRGraph,
        spec: Optional[Any] = None,
        build_seconds: Optional[float] = None,
    ) -> str:
        """Atomically publish one built graph; returns the artifact dir.

        The artifact is staged under a hidden temp directory in the
        store root and renamed into place, so a concurrent reader sees
        either nothing or the complete artifact.  Losing a publish race
        (the final directory already exists) silently discards the
        duplicate -- content addressing makes both copies identical.
        """
        import repro

        final = self._dir(digest)
        os.makedirs(os.path.dirname(final), exist_ok=True)
        tmp = os.path.join(
            self.root, f".tmp-{digest[:16]}-{os.getpid()}-{time.time_ns()}"
        )
        os.makedirs(tmp)
        try:
            arrays: Dict[str, Optional[Dict[str, Any]]] = {}
            for name in ARRAY_NAMES:
                array = getattr(graph, name)
                if array is None:
                    arrays[name] = None
                    continue
                np.save(os.path.join(tmp, name + ".npy"), np.asarray(array))
                arrays[name] = {
                    "dtype": str(array.dtype),
                    "shape": list(array.shape),
                    "nbytes": int(array.nbytes),
                }
            manifest = {
                "magic": MANIFEST_MAGIC,
                "schema": STORE_SCHEMA,
                "digest": digest,
                "arrays": arrays,
                "num_vertices": graph.num_vertices,
                "num_edges": graph.num_edges,
                "provenance": {
                    "version": repro.__version__,
                    "created": time.time(),
                    "build_seconds": build_seconds,
                    "pid": os.getpid(),
                    "spec": _spec_fields(spec),
                },
            }
            # The manifest is written last inside the staging directory,
            # but atomicity comes from the directory rename below.
            with open(
                os.path.join(tmp, MANIFEST_NAME), "w", encoding="utf-8"
            ) as f:
                json.dump(manifest, f, indent=2, sort_keys=True)
            try:
                os.rename(tmp, final)
            except OSError:
                if not os.path.exists(self._manifest_path(digest)):
                    raise  # a real failure, not a lost publish race
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        trace_event(
            "graph_store.publish",
            digest=digest,
            vertices=graph.num_vertices,
            edges=graph.num_edges,
        )
        return final

    # ------------------------------------------------------------------
    # Build-through
    # ------------------------------------------------------------------

    def get_or_build(self, spec: Any, builder) -> CSRGraph:
        """Map the artifact for ``spec``, building and publishing on miss.

        The fast path is lock-free: a published artifact maps directly.
        On miss, builders serialize on a per-digest file lock; whoever
        wins builds once and publishes, and everyone who waited re-reads
        and maps the published artifact -- so N concurrent processes
        over one recipe pay exactly one build.
        """
        digest = spec_digest(spec)
        graph = self.load(digest)
        if graph is not None:
            FAULT_COUNTERS.increment("graph_store.hits")
            trace_event("graph_store.hit", digest=digest)
            return graph
        FAULT_COUNTERS.increment("graph_store.misses")
        with self._build_lock(digest):
            # A concurrent builder may have published while this
            # process waited on the lock.
            graph = self.load(digest)
            if graph is not None:
                FAULT_COUNTERS.increment("graph_store.hits")
                trace_event("graph_store.hit", digest=digest, waited=True)
                return graph
            start = time.perf_counter()
            built = builder()
            build_seconds = time.perf_counter() - start
            FAULT_COUNTERS.increment("graph_store.builds")
            FAULT_COUNTERS.increment(
                "graph_store.build_ms", int(build_seconds * 1000)
            )
            FAULT_COUNTERS.observe(
                "graph_store.build_seconds", build_seconds
            )
            trace_event(
                "graph_store.build",
                digest=digest,
                seconds=round(build_seconds, 6),
            )
            try:
                self.put(
                    digest, built, spec=spec, build_seconds=build_seconds
                )
            except OSError:
                # A full or read-only disk must not fail the run: hand
                # back the in-memory build; the next process retries.
                FAULT_COUNTERS.increment("graph_store.put_errors")
                return built
        max_bytes = env_int("REPRO_GRAPH_STORE_MAX_BYTES", minimum=0)
        if max_bytes is not None:
            self.prune(max_bytes, protect=digest)
        graph = self.load(digest)
        if graph is None:  # evicted or corrupted between publish and map
            return built
        return graph

    # ------------------------------------------------------------------
    # Inventory / eviction
    # ------------------------------------------------------------------

    def entries(self) -> Iterator[Tuple[str, int, float, Dict[str, Any]]]:
        """Yield ``(digest, size_bytes, mtime, manifest)`` per artifact.

        ``mtime`` is the manifest's, which :meth:`load` touches -- so it
        orders artifacts by last *use*, not last build.
        """
        if not os.path.isdir(self.root):
            return
        for fan in sorted(os.listdir(self.root)):
            fan_dir = os.path.join(self.root, fan)
            if len(fan) != 2 or not os.path.isdir(fan_dir):
                continue
            for digest in sorted(os.listdir(fan_dir)):
                directory = os.path.join(fan_dir, digest)
                manifest_path = os.path.join(directory, MANIFEST_NAME)
                try:
                    with open(manifest_path, encoding="utf-8") as f:
                        manifest = json.load(f)
                    mtime = os.stat(manifest_path).st_mtime
                except (OSError, json.JSONDecodeError):
                    continue
                size = 0
                try:
                    for name in os.listdir(directory):
                        size += os.stat(os.path.join(directory, name)).st_size
                except OSError:
                    continue
                yield digest, size, mtime, manifest

    def total_bytes(self) -> int:
        return sum(size for _, size, _, _ in self.entries())

    def prune(
        self,
        max_bytes: int,
        protect: Union[None, str, Iterable[str]] = None,
    ) -> int:
        """Drop least-recently-used artifacts until under ``max_bytes``.

        ``protect`` exempts a digest (or collection of digests) so a
        tight budget cannot evict the graph the caller is about to map.
        Digests pinned via :func:`protect_digest` -- base and compacted
        artifacts of live streaming sessions -- are always exempt,
        closing the race between a session's compaction publish and a
        concurrent LRU sweep.  Returns the number of artifacts removed.
        """
        if protect is None:
            protected = set()
        elif isinstance(protect, str):
            protected = {protect}
        else:
            protected = set(protect)
        protected |= protected_digests()
        items = sorted(self.entries(), key=lambda item: item[2])
        total = sum(size for _, size, _, _ in items)
        removed = 0
        for digest, size, _, _ in items:
            if total <= max_bytes:
                break
            if digest in protected:
                continue
            self._evict(digest, reason="evictions")
            total -= size
            removed += 1
        return removed


def _spec_fields(spec: Optional[Any]) -> Optional[Dict[str, Any]]:
    """The recipe fields recorded as provenance (best-effort)."""
    if spec is None:
        return None
    return {
        "spec": spec.spec,
        "seed": spec.seed,
        "scale": spec.scale,
        "weighted": spec.weighted,
        "symmetrized": spec.symmetrized,
        "weight_seed": spec.weight_seed,
    }

