"""Interconnect models: intra-GPN point-to-point fabric and inter-GPN crossbar.

NOVA separates PE-to-memory traffic from PE-to-PE traffic (Section IV-C);
the only load on the interconnect is vertex-update messages.  The models
here convert a per-quantum (source PE x destination PE) byte matrix into
the service time of the most loaded link or switch port, which is how the
quantum engine folds network contention into execution time.

The names below resolve on first access (see :mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.network.fabric": (
        "Fabric",
        "IdealFabric",
        "PointToPointFabric",
        "HierarchicalFabric",
    ),
})

__all__ = [
    "Fabric",
    "IdealFabric",
    "PointToPointFabric",
    "HierarchicalFabric",
]
