"""Vertex-centric graph workloads.

The paper evaluates five workloads (Section V): BFS, CC, and SSSP in the
asynchronous message-driven mode, and PageRank and Betweenness Centrality
in the bulk-synchronous (BSP) mode.  Each workload is a
:class:`~repro.workloads.base.VertexProgram`: a reduce function applied
by the Message Processing Unit and a propagate function applied by the
Message Generation Unit, exactly mirroring Algorithm 1.

The names below resolve on first access, and :func:`get_workload`
imports only the workload module it returns.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.workloads.base import VertexProgram

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.base": (
        "VertexProgram",
        "ProgramState",
        "ReduceOutcome",
        "expand_edges",
    ),
    "repro.workloads.adapters": ("BSPAdapter",),
    "repro.workloads.bfs": ("BFS",),
    "repro.workloads.sssp": ("SSSP",),
    "repro.workloads.cc": ("ConnectedComponents",),
    "repro.workloads.pagerank": ("PageRank",),
    "repro.workloads.pagerank_delta": ("PageRankDelta",),
    "repro.workloads.bc": ("BetweennessCentrality",),
    "repro.workloads.reference": ("reference",),
})

#: workload name -> the class it names among the exports above.
_REGISTRY = {
    "bfs": "BFS",
    "sssp": "SSSP",
    "cc": "ConnectedComponents",
    "pr": "PageRank",
    "pr-delta": "PageRankDelta",
    "bc": "BetweennessCentrality",
}


def get_workload(name: str, **kwargs) -> VertexProgram:
    """Instantiate a workload by name.

    The paper's five: ``bfs``, ``cc``, ``sssp`` (async), ``pr``, ``bc``
    (BSP) -- plus ``pr-delta``, the asynchronous PageRank variant the
    paper discusses and rejects in Section V.
    """
    try:
        cls = _REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return getattr(sys.modules[__name__], cls)(**kwargs)


def workload_names() -> list:
    """Paper order: BFS, CC, SSSP (async); PR, BC (BSP)."""
    from repro.runner.spec import FRONT_END_WORKLOADS

    return list(FRONT_END_WORKLOADS)


__all__ = [
    "VertexProgram",
    "ProgramState",
    "ReduceOutcome",
    "expand_edges",
    "BSPAdapter",
    "BFS",
    "SSSP",
    "ConnectedComponents",
    "PageRank",
    "PageRankDelta",
    "BetweennessCentrality",
    "get_workload",
    "workload_names",
    "reference",
]
