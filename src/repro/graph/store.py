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
- **Facts without a map**: the manifest also records the graph's CSR
  digest (:meth:`~repro.graph.csr.CSRGraph.digest`, its part of every
  run-cache key) and its default source (the highest-out-degree
  vertex), computed once at publish.  :meth:`GraphStore.facts` reads
  them without touching an array, so a process keys a store-backed run
  without mapping the graph, and a mapped graph carries its recorded
  digest.  Keys trust these records as loads trust the arrays;
  :meth:`GraphStore.verify` (``repro graph verify``) re-hashes every
  artifact against them.  A manifest without them (written by older
  code) reads as corrupt: it is evicted and the recipe rebuilt.
- **Publish** is atomic: arrays and manifest are written into a hidden
  temp directory and ``os.rename``d into place, so readers can never
  observe a torn artifact.  Concurrent builders serialize on a
  per-digest ``fcntl`` file lock: one process builds, the rest block
  and then map the published result.  A store that cannot take the
  lock or publish (read-only, full, or its root under a regular file)
  hands back the in-memory build and counts ``put_errors``.
- **Eviction** mirrors :class:`~repro.runner.cache.RunCache`:
  :meth:`GraphStore.prune` drops least-recently-mapped artifacts past a
  byte budget (``REPRO_GRAPH_STORE_MAX_BYTES`` applies it after each
  build), and a corrupt artifact (bad manifest, truncated array) is
  evicted on load and reads as a miss.  Evicting an artifact a
  process still maps is harmless: the mapping outlives the unlink.

Environment knobs:

- ``REPRO_GRAPH_STORE_DIR``: artifact root (default:
  ``<REPRO_CACHE_DIR or ~/.cache/repro-nova>/graphs``).
- ``REPRO_GRAPH_STORE_MAX_BYTES``: LRU size cap applied after builds.

Counters (``graph_store.*`` in :data:`~repro.obs.counters.FAULT_COUNTERS`):
``hits`` (a map or a manifest read of a published artifact),
``misses``, ``builds``, ``build_ms``, ``lock_waits``, ``evictions``,
``corrupt``, ``put_errors``.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import os
import shutil
import time
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.env import env_int
from repro.errors import GraphFormatError
from repro.obs.counters import FAULT_COUNTERS
from repro.obs.tracing import trace_event

if TYPE_CHECKING:
    import numpy as np

    from repro.graph.csr import CSRGraph

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


class GraphFacts(NamedTuple):
    """What a run needs to know about a graph before it maps one: the
    size, the CSR digest that keys it, and the default source
    (``None`` for a graph without vertices)."""

    num_vertices: int
    num_edges: int
    csr_digest: str
    default_source: Optional[int]

    @classmethod
    def of(cls, graph: CSRGraph) -> "GraphFacts":
        return cls(
            graph.num_vertices,
            graph.num_edges,
            graph.digest(),
            graph.max_out_degree_vertex() if graph.num_vertices else None,
        )

    @classmethod
    def recorded(cls, manifest: Dict[str, Any]) -> "GraphFacts":
        """The facts a manifest records; ``KeyError``, ``TypeError`` or
        ``ValueError`` if it lacks them."""
        source = manifest["default_source"]
        return cls(
            int(manifest["num_vertices"]),
            int(manifest["num_edges"]),
            str(manifest["csr_digest"]),
            None if source is None else int(source),
        )


def _load_array(
    path: str, dtype: str, shape: Tuple[int, ...]
) -> np.ndarray:
    """Memory-map one published ``.npy`` file read-only.

    Zero-length arrays cannot be mmapped (POSIX forbids empty maps), so
    they load eagerly -- there are no bytes to share anyway.
    """
    import numpy as np

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
    def _build_lock(self, digest: str) -> Iterator[bool]:
        """Cross-process exclusive lock serializing one digest's build.

        Lock files live outside the artifact directories so eviction
        never unlinks a held lock.  Yields ``False``, holding nothing,
        when the lock file cannot be opened: the store is unusable.
        """
        path = self._lock_path(digest)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            handle = open(path, "a+b")
        except OSError:
            yield False
            return
        with handle:
            try:
                fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                FAULT_COUNTERS.increment("graph_store.lock_waits")
                trace_event("graph_store.lock_wait", digest=digest)
                fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield True
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------

    def load(self, digest: str) -> Optional[CSRGraph]:
        """Map one artifact, or ``None`` on miss or corruption.

        Corrupt artifacts (a manifest :meth:`_read_manifest` refuses,
        missing or size-mismatched arrays) are evicted so the next
        build can republish them.  Structural CSR validation is skipped
        (``validate=False``): the arrays were validated at publish time
        and re-walking them here would fault in every page of a graph
        we specifically want to load lazily.  The graph carries the
        manifest's recorded CSR digest.
        """
        read = self._read_manifest(digest)
        return None if read is None else self._map(digest, *read)

    def _map(
        self, digest: str, manifest: Dict[str, Any], facts: GraphFacts
    ) -> Optional[CSRGraph]:
        from repro.graph.csr import CSRGraph

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
                digest=facts.csr_digest,
            )
        except Exception:
            self._evict(digest, reason="corrupt")
            return None
        self._touch(digest)
        return graph

    def facts(self, digest: str) -> Optional[GraphFacts]:
        """The published artifact's :class:`GraphFacts`, else ``None``.

        Read from the manifest, mapping no array; counts as a
        ``graph_store.hits`` hit.
        """
        read = self._read_manifest(digest)
        if read is None:
            return None
        self._touch(digest)
        FAULT_COUNTERS.increment("graph_store.hits")
        trace_event("graph_store.hit", digest=digest, manifest=True)
        return read[1]

    def _touch(self, digest: str) -> None:
        try:
            os.utime(self._manifest_path(digest))  # LRU touch for prune()
        except OSError:
            pass

    def _read_manifest(
        self, digest: str
    ) -> Optional[Tuple[Dict[str, Any], GraphFacts]]:
        """The artifact's manifest and recorded facts; ``None`` on a miss.

        A manifest that does not parse, has another magic or schema, or
        records no facts (older code wrote none) is corrupt: the
        artifact is evicted, and the miss rebuilds it under the same
        digest.
        """
        try:
            with open(self._manifest_path(digest), encoding="utf-8") as f:
                manifest = json.load(f)
        except OSError:
            return None  # plain miss: nothing published yet
        except ValueError:
            manifest = None  # not JSON: refused below as corrupt
        try:
            if (
                manifest["magic"] != MANIFEST_MAGIC
                or manifest["schema"] != STORE_SCHEMA
                or not isinstance(manifest["arrays"], dict)
            ):
                raise ValueError("foreign manifest")
            return manifest, GraphFacts.recorded(manifest)
        except (KeyError, TypeError, ValueError):
            self._evict(digest, reason="corrupt")
            return None

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
        import numpy as np

        import repro

        facts = GraphFacts.of(graph)
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
                "num_vertices": facts.num_vertices,
                "num_edges": facts.num_edges,
                "csr_digest": facts.csr_digest,
                "default_source": facts.default_source,
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
        published = False
        with self._build_lock(digest) as locked:
            if locked:
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
            if locked:
                try:
                    self.put(
                        digest, built, spec=spec, build_seconds=build_seconds
                    )
                    published = True
                except OSError:
                    pass
        if not published:
            # An unusable store (read-only, full, its root under a
            # regular file) must not fail the run: hand back the
            # in-memory build; the next process retries.
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

    def verify(self) -> Iterator[Tuple[str, Dict[str, Any], Optional[str]]]:
        """Re-hash every artifact against its manifest's recorded facts.

        Keys trust each manifest's ``csr_digest`` and ``default_source``
        as loads trust the arrays; this is the check behind that trust.
        Yields ``(digest, manifest, problem)`` per artifact, ``problem``
        being ``None`` when the artifact checks out.  An artifact with a
        problem is evicted as ``graph_store.corrupt``.  The arrays are
        hashed in place, so verifying faults in every page once.
        """
        from repro.graph.csr import CSRGraph

        for digest, _, _, manifest in list(self.entries()):
            read = self._read_manifest(digest)  # evicts a corrupt manifest
            if read is None:
                yield digest, manifest, "unreadable manifest"
                continue
            recorded = read[1]
            graph = self._map(digest, *read)  # evicts unreadable arrays
            if graph is None:
                yield digest, manifest, "unreadable arrays"
                continue
            # The same arrays without the recorded digest: hashed afresh.
            actual = GraphFacts.of(
                CSRGraph(
                    graph.row_ptr, graph.col_idx, graph.weights,
                    validate=False,
                )
            )
            wrong = [
                name
                for name, want, got in zip(recorded._fields, recorded, actual)
                if want != got
            ]
            if wrong:
                self._evict(digest, reason="corrupt")
                yield digest, manifest, " and ".join(wrong) + " mismatch"
            else:
                yield digest, manifest, None

    def total_bytes(self) -> int:
        return sum(size for _, size, _, _ in self.entries())

    def prune(self, max_bytes: int, protect: Optional[str] = None) -> int:
        """Drop least-recently-used artifacts until under ``max_bytes``.

        ``protect`` exempts one digest so a tight budget cannot evict
        the graph the caller is about to map.  Evicting an artifact
        another process maps is harmless: its mapping outlives the
        unlink, and a later resolve rebuilds the recipe.  Returns the
        number of artifacts removed.
        """
        items = sorted(self.entries(), key=lambda item: item[2])
        total = sum(size for _, size, _, _ in items)
        removed = 0
        for digest, size, _, _ in items:
            if total <= max_bytes:
                break
            if digest == protect:
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

