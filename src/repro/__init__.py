"""NOVA: A Novel Vertex Management Architecture for Scalable Graph Processing.

A full-system reproduction of the HPCA 2025 paper: the NOVA accelerator
(decoupled MPU/VMU/MGU pipeline with superblock active-vertex tracking),
the PolyGraph and Ligra baselines, five vertex-centric workloads, graph
generators and partitioners, memory/network timing models, and the
analytical models behind the paper's static tables.

Quick start::

    from repro import NovaSystem, scaled_config
    from repro.graph.generators import rmat

    graph = rmat(16, edge_factor=16, seed=1)
    system = NovaSystem(scaled_config(num_gpns=2), graph)
    run = system.run("bfs", source=0, compute_reference=True)
    print(run.describe())

The names below resolve on first access (see :mod:`repro._lazy`), so
importing a subpackage such as :mod:`repro.runner` does not load the
engine, the baselines or the oracle.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.errors": (
        "ReproError",
        "GraphFormatError",
        "ConfigError",
        "PartitionError",
        "SimulationError",
        "WorkloadError",
    ),
    "repro.graph.csr": ("CSRGraph",),
    "repro.core.system": ("NovaSystem",),
    "repro.core.metrics": ("RunResult",),
    "repro.obs.config": ("ObsConfig",),
    "repro.sim.config": ("NovaConfig", "paper_config", "scaled_config"),
    "repro.baselines.polygraph": ("PolyGraphConfig", "PolyGraphSystem"),
    "repro.baselines.ligra": ("LigraConfig", "LigraModel"),
    "repro.workloads": ("get_workload", "workload_names"),
})

__all__ = [
    "ReproError",
    "GraphFormatError",
    "ConfigError",
    "PartitionError",
    "SimulationError",
    "WorkloadError",
    "CSRGraph",
    "NovaSystem",
    "RunResult",
    "NovaConfig",
    "ObsConfig",
    "paper_config",
    "scaled_config",
    "PolyGraphConfig",
    "PolyGraphSystem",
    "LigraConfig",
    "LigraModel",
    "get_workload",
    "workload_names",
    "__version__",
]
