"""Declarative descriptions of a single simulation run.

A :class:`RunSpec` captures everything that determines one simulation's
outcome: the system kind and its config, the graph, the workload and its
kwargs, the source, the placement, and the quantum quota.  Specs are
plain data so they can be pickled to worker processes and digested into
cache keys.

Graphs can be given two ways:

- an in-memory :class:`~repro.graph.csr.CSRGraph` (the parent builds it
  once and workers receive a pickled copy), or
- a :class:`GraphSpec` recipe -- cheaper to ship than the arrays.
  Recipes resolve through the content-addressed
  :class:`~repro.graph.store.GraphStore`: the first process to need a
  graph builds it once and publishes mmap-able CSR arrays; every other
  process (sweep workers, service jobs, later CLI invocations) maps the
  published artifact read-only with zero copies.  A small per-process
  LRU memo sits in front of the store so repeated resolves inside one
  process stay free without leaking one full graph per distinct spec.

Either way the cache key digests the graph's CSR arrays
(:meth:`~repro.graph.csr.CSRGraph.digest`), so a recipe and the graph
it builds hit the same cache entry.  A recipe reads that digest, and
its default source, from the published artifact's manifest
(:meth:`GraphSpec.facts`), so keying a run maps no array.

Front ends (``repro run``, ``sweep``/``report``, ``profile``,
``validate`` and service jobs) describe a run by its knobs -- GPN
count, scale, on-chip size -- and :func:`lower_run` turns those into a
:class:`RunSpec`, so the same inputs lower to the same spec, and the
same cache key, on every path.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Union

from repro.errors import ConfigError

if TYPE_CHECKING:
    import numpy as np

    from repro.graph.csr import CSRGraph
    from repro.graph.partition import VertexPlacement
    from repro.graph.store import GraphFacts
    from repro.obs.config import ObsConfig


@dataclass(frozen=True)
class GraphSpec:
    """A reproducible recipe for a graph.

    ``spec`` uses the CLI's specifier syntax (``rmat:14:16``,
    ``urand:100000:3000000``, ``suite:twitter``, or a file path -- see
    :mod:`repro.graph.specifier`).  ``scale`` applies to ``suite:``
    graphs only (the Table III stand-ins are scale-parameterized); a
    suite spec at the suite's default scale stores ``None``, so both
    spellings name one recipe, one store artifact and one cache key.
    """

    spec: str
    seed: int = 42
    scale: Optional[float] = None
    weighted: bool = False
    symmetrized: bool = False
    weight_seed: int = 7

    def __post_init__(self) -> None:
        if self.scale is not None and self.spec.startswith("suite:"):
            from repro.graph.suites import DEFAULT_SCALE

            if self.scale == DEFAULT_SCALE:
                object.__setattr__(self, "scale", None)

    @classmethod
    def for_workload(
        cls,
        spec: str,
        workload: str,
        seed: int = 42,
        scale: Optional[float] = None,
    ) -> "GraphSpec":
        """The graph variant ``workload`` runs on.

        sssp runs on the weighted variant and cc on the symmetrized
        one.  Every front end (``repro run``, ``sweep``, ``profile``,
        ``graph build`` and service jobs) derives its recipe here, so
        the same inputs digest to the same cache key on every path.
        ``scale`` (the front end's ``--scale``) reaches ``suite:``
        specs only; other specs ignore it.
        """
        return cls(
            spec,
            seed=seed,
            scale=scale if spec.startswith("suite:") else None,
            weighted=(workload == "sssp"),
            symmetrized=(workload == "cc"),
        )

    def build(self) -> CSRGraph:
        """Materialize the graph: memo, then artifact store, then build.

        The returned graph's arrays are read-only ``np.memmap`` views of
        the published artifact -- the kernel page cache shares the bytes
        across every process mapping the same recipe.  Where the store
        cannot publish, the graph stays in process memory.
        """
        cached = _GRAPH_MEMO.get(self)
        if cached is not None:
            return cached
        from repro.graph.store import GraphStore

        graph = GraphStore().get_or_build(self, self.build_uncached)
        _GRAPH_MEMO.put(self, graph)
        return graph

    def facts(self) -> GraphFacts:
        """The graph's size, CSR digest and default source.

        With the artifact published, they come from its manifest and no
        array is mapped; otherwise the graph is built (and published)
        and its facts computed.  Memoized per process: a published
        artifact never changes.
        """
        facts = _GRAPH_MEMO.get_facts(self)
        if facts is not None:
            return facts
        from repro.graph.store import GraphFacts, GraphStore, spec_digest

        facts = GraphStore().facts(spec_digest(self))
        if facts is None:
            facts = GraphFacts.of(self.build())
        _GRAPH_MEMO.put_facts(self, facts)
        return facts

    def build_uncached(self) -> CSRGraph:
        """Materialize the graph in process memory, bypassing the store."""
        if self.scale is not None and not self.spec.startswith("suite:"):
            raise ConfigError("GraphSpec.scale only applies to suite: graphs")
        from repro.graph.specifier import build_graph

        graph = build_graph(self.spec, seed=self.seed, scale=self.scale)
        if self.symmetrized:
            graph = graph.symmetrized()
        if self.weighted and not graph.has_weights:
            from repro.graph.generators import with_uniform_weights

            graph = with_uniform_weights(graph, seed=self.weight_seed)
        return graph


class _GraphMemo:
    """A small per-process LRU of built graphs, and one of their facts.

    The memo used to be an unbounded dict, which leaked one full graph
    per distinct spec in long-lived service processes.  Store-backed
    graphs make eviction cheap (the next resolve re-maps the artifact
    without rebuilding), so the capacity is deliberately small.  Facts
    (:meth:`GraphSpec.facts`, a few numbers each) keep a larger LRU of
    their own, so keying a sweep's cells reads each recipe's manifest
    once.
    """

    CAPACITY = 8
    FACTS_CAPACITY = 256

    def __init__(self) -> None:
        self._entries: "OrderedDict[GraphSpec, CSRGraph]" = OrderedDict()
        self._facts: "OrderedDict[GraphSpec, GraphFacts]" = OrderedDict()

    def get(self, spec: "GraphSpec") -> Optional[CSRGraph]:
        return _lru_get(self._entries, spec)

    def put(self, spec: "GraphSpec", graph: CSRGraph) -> None:
        _lru_put(self._entries, spec, graph, self.CAPACITY)

    def get_facts(self, spec: "GraphSpec") -> Optional[GraphFacts]:
        return _lru_get(self._facts, spec)

    def put_facts(self, spec: "GraphSpec", facts: GraphFacts) -> None:
        _lru_put(self._facts, spec, facts, self.FACTS_CAPACITY)

    def clear(self) -> None:
        self._entries.clear()
        self._facts.clear()

    def __len__(self) -> int:
        return len(self._entries)


def _lru_get(table: OrderedDict, key: Any) -> Any:
    value = table.get(key)
    if value is not None:
        table.move_to_end(key)
    return value


def _lru_put(table: OrderedDict, key: Any, value: Any, capacity: int) -> None:
    table[key] = value
    table.move_to_end(key)
    while len(table) > capacity:
        table.popitem(last=False)


#: Per-process LRU memo of built graphs (GraphSpec is frozen/hashable).
_GRAPH_MEMO = _GraphMemo()

#: Workloads that take no source vertex.
SOURCELESS_WORKLOADS = ("cc", "pr", "pr-delta")

#: The paper's five workloads, in its order: the names ``sweep``,
#: ``graph build`` and job specs accept.
FRONT_END_WORKLOADS = ("bfs", "cc", "sssp", "pr", "bc")


def parse_workloads(text: str) -> list:
    """The names in a comma-separated ``--workloads`` list; ConfigError
    on none or on one outside :data:`FRONT_END_WORKLOADS`."""
    known = ", ".join(FRONT_END_WORKLOADS)
    workloads = [w.strip() for w in text.split(",") if w.strip()]
    if not workloads:
        raise ConfigError(
            f"--workloads needs at least one of {known}, "
            "comma-separated, e.g. bfs,sssp"
        )
    for workload in workloads:
        if workload not in FRONT_END_WORKLOADS:
            raise ConfigError(
                f"unknown workload {workload!r}; choose from {known}"
            )
    return workloads


def resolve_source(
    graph: Union[GraphSpec, CSRGraph],
    workload: str,
    source: Optional[int] = None,
) -> Optional[int]:
    """The conventional default source: the highest-out-degree vertex.

    Every front end (``repro run``, ``repro submit``, the service
    scheduler) resolves an omitted source the same way so that the
    resulting specs share one cache key.  Sourceless workloads always
    map to ``None``.  A recipe's default comes from its facts, without
    mapping the graph.
    """
    if workload in SOURCELESS_WORKLOADS:
        return None
    if source is not None:
        return int(source)
    if isinstance(graph, GraphSpec):
        default = graph.facts().default_source
        if default is not None:
            return default
        graph = graph.build()  # no vertices: fail as a built graph does
    return graph.max_out_degree_vertex()


def sample_sources(
    graph: CSRGraph,
    count: int,
    seed: int = 17,
    require_outgoing: bool = True,
) -> np.ndarray:
    """Graph500-style source sampling: random vertices, optionally
    restricted to those with at least one outgoing edge."""
    import numpy as np

    if count <= 0:
        raise ConfigError("count must be positive")
    rng = np.random.default_rng(seed)
    if require_outgoing:
        candidates = np.flatnonzero(graph.out_degrees() > 0)
        if candidates.size == 0:
            raise ConfigError("graph has no vertex with outgoing edges")
    else:
        candidates = np.arange(graph.num_vertices)
    replace = candidates.size < count
    return rng.choice(candidates, size=count, replace=replace)


@dataclass
class RunSpec:
    """One independent simulation: system + config + graph + workload.

    ``config`` is the system's own config object (``NovaConfig``,
    ``PolyGraphConfig``, or ``LigraConfig``); ``None`` means the
    system's default.  ``placement`` (NOVA only) is a strategy name or
    a prebuilt :class:`VertexPlacement`.
    """

    workload: str
    graph: Union[GraphSpec, CSRGraph]
    config: Any = None
    system: str = "nova"
    source: Optional[int] = None
    placement: Union[str, VertexPlacement] = "random"
    placement_seed: int = 1
    max_quanta: int = 5_000_000
    workload_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Observability instrumentation for the run (NOVA only).  Part of
    #: the cache key: an instrumented run carries its timeline in the
    #: cached RunResult, so it must never alias an uninstrumented entry.
    obs: Optional[ObsConfig] = None
    #: Pre-computed graph version digest.  When set, the cache key uses
    #: it verbatim instead of digesting built arrays -- streaming
    #: session jobs key on the session's rolling version digest (base
    #: digest chained with every applied delta batch), so the graph is
    #: never materialized just to admit a job and two versions of one
    #: resident graph can never alias.
    graph_digest: Optional[str] = None

    def resolve_graph(self) -> CSRGraph:
        if isinstance(self.graph, GraphSpec):
            return self.graph.build()
        return self.graph

    def describe(self) -> str:
        """One-line human summary (failure records, CLI diagnostics)."""
        if isinstance(self.graph, GraphSpec):
            graph = self.graph.spec
        else:
            graph = (
                f"csr:v={self.graph.num_vertices}:e={self.graph.num_edges}"
            )
        source = "-" if self.source is None else str(self.source)
        placement = (
            self.placement
            if isinstance(self.placement, str)
            else f"prebuilt:{self.placement.strategy}"
        )
        return (
            f"{self.system}/{self.workload} graph={graph} source={source} "
            f"placement={placement}"
        )


def lower_run(
    workload: str,
    graph: Union[str, CSRGraph],
    *,
    seed: int = 42,
    system: str = "nova",
    gpns: int = 1,
    scale: float = 1.0 / 256.0,
    source: Optional[int] = None,
    placement: str = "random",
    placement_seed: int = 1,
    max_quanta: int = 5_000_000,
    onchip: Union[None, int, str] = None,
    vmu_mode: str = "tracker",
    workload_kwargs: Optional[Mapping[str, Any]] = None,
    timeline: bool = False,
) -> RunSpec:
    """The :class:`RunSpec` a front end's knobs describe.

    The one place that decides, for every front end:

    - the graph: a specifier string becomes the workload's variant
      (:meth:`GraphSpec.for_workload`); a built :class:`CSRGraph` is
      used as given;
    - the source: ``None`` for a sourceless workload, otherwise the
      default of :func:`resolve_source`; a source outside the graph's
      vertices raises :class:`ConfigError` before any key is computed;
    - the system config: NOVA's :func:`~repro.sim.config.scaled_config`
      at ``gpns``/``scale`` (``vmu_mode`` applied only when it is not
      the default, so tracker-mode keys never move), PolyGraph's
      on-chip memory (``onchip`` in bytes or a size string, default
      :func:`~repro.graph.suites.scaled_onchip_bytes` at ``scale``, as
      Table III's slice counts assume), Ligra's default;
    - the instrumentation: ``timeline=True`` records a per-quantum
      timeline.
    """
    if isinstance(graph, str):
        graph = GraphSpec.for_workload(graph, workload, seed=seed, scale=scale)
    if workload in SOURCELESS_WORKLOADS:
        source = None
    else:
        source = resolve_source(graph, workload, source)
        size = graph.facts() if isinstance(graph, GraphSpec) else graph
        if not 0 <= source < size.num_vertices:
            raise ConfigError(
                f"source {source} out of range: the graph has "
                f"{size.num_vertices} vertices (0..{size.num_vertices - 1})"
            )
    if system == "nova":
        from repro.sim.config import scaled_config

        config = scaled_config(num_gpns=gpns, scale=scale)
        if vmu_mode != "tracker":
            config = config.with_updates(vmu_mode=vmu_mode)
    elif system == "polygraph":
        from repro.baselines.polygraph import PolyGraphConfig
        from repro.units import parse_size

        if onchip is None:
            from repro.graph.suites import scaled_onchip_bytes

            onchip = scaled_onchip_bytes(scale)
        elif isinstance(onchip, str):
            onchip = parse_size(onchip)
        config = PolyGraphConfig(onchip_bytes=onchip)
    elif system == "ligra":
        from repro.baselines.ligra import LigraConfig

        config = LigraConfig()
    else:
        raise ConfigError(
            f"unknown system {system!r}; expected nova, polygraph or ligra"
        )
    obs = None
    if timeline:
        from repro.obs.config import ObsConfig

        obs = ObsConfig(timeline=True)
    return RunSpec(
        workload,
        graph,
        config=config,
        system=system,
        source=source,
        placement=placement,
        placement_seed=placement_seed,
        max_quanta=max_quanta,
        workload_kwargs=dict(workload_kwargs or {}),
        obs=obs,
    )
