"""Graph substrate: representation, generation, I/O, and partitioning.

The accelerator consumes graphs in compressed sparse row (CSR) form --
exactly the `row_ptr` / `edge_dests` / `edge_wgt` arrays of Algorithm 1 in
the paper.  This package also provides the synthetic generators standing
in for the paper's inputs (Table III), the three spatial vertex-mapping
strategies of Section IV-B, and graph statistics used by the benches.
The names below resolve on first access: mapping a stored graph loads
:mod:`repro.graph.csr` and :mod:`repro.graph.store`, not the generators.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.graph.csr": ("CSRGraph",),
    "repro.graph.generators": (
        "uniform_random",
        "rmat",
        "road_grid",
        "power_law",
        "with_uniform_weights",
    ),
    "repro.graph.partition": (
        "VertexPlacement",
        "interleave_placement",
        "random_placement",
        "load_balanced_placement",
        "locality_placement",
        "edge_cut_fraction",
        "load_imbalance",
    ),
    "repro.graph.reorder": ("degree_order", "bfs_order", "community_order"),
    "repro.graph.properties": ("GraphSummary", "summarize"),
    "repro.graph.store": (
        "GraphStore",
        "default_store_dir",
        "spec_digest",
        "store_enabled",
    ),
    "repro.graph.suites": ("GraphSpec", "paper_suite", "build_graph"),
    "repro.graph.io": ("io",),
})

__all__ = [
    "CSRGraph",
    "uniform_random",
    "rmat",
    "road_grid",
    "power_law",
    "with_uniform_weights",
    "VertexPlacement",
    "interleave_placement",
    "random_placement",
    "load_balanced_placement",
    "locality_placement",
    "edge_cut_fraction",
    "load_imbalance",
    "degree_order",
    "bfs_order",
    "community_order",
    "GraphStore",
    "GraphSummary",
    "default_store_dir",
    "spec_digest",
    "store_enabled",
    "summarize",
    "GraphSpec",
    "paper_suite",
    "build_graph",
    "io",
]
