"""NOVA: the paper's primary contribution.

A NOVA system is a set of graph processing nodes (GPNs), each with eight
processing elements (PEs).  Every PE owns a shard of the vertex set in
its dedicated HBM2 channel and runs the decoupled three-unit pipeline of
Fig 3:

- **Message Processing Unit** (:class:`~repro.core.engine.NovaEngine`
  MPU phase) -- reduces incoming messages into vertex properties through
  a small direct-mapped cache.
- **Vertex Management Unit** (:mod:`repro.core.tracker`) -- tracks active
  vertices spilled to DRAM with per-superblock counters and prefetches
  active blocks into the 80-entry active buffer.
- **Message Generation Unit** (MGU phase) -- expands active vertices'
  edges from DDR4 and emits messages into the interconnect.

Public entry point: :class:`~repro.core.system.NovaSystem`.  The names
below resolve on first access, so loading :mod:`repro.core.metrics`
(every cached result unpickles into one) does not load the engine.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.layout": ("VertexMemoryLayout",),
    "repro.core.tracker": ("TrackerModule",),
    "repro.core.queues": (
        "MessageQueue",
        "PendingWork",
        "PooledMessageQueue",
        "PooledPendingWork",
    ),
    "repro.core.metrics": ("RunResult",),
    "repro.core.engine": ("NovaEngine",),
    "repro.core.engine_scalar": ("ScalarNovaEngine",),
    "repro.core.system": ("NovaSystem",),
})

__all__ = [
    "VertexMemoryLayout",
    "TrackerModule",
    "MessageQueue",
    "PendingWork",
    "PooledMessageQueue",
    "PooledPendingWork",
    "RunResult",
    "NovaEngine",
    "ScalarNovaEngine",
    "NovaSystem",
]
