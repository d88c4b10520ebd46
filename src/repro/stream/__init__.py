"""Streaming dynamic graphs: delta batches, overlays, incremental runs.

The streaming subsystem adds the repo's first mutable-graph code path
while preserving the immutability discipline everywhere else:

- :mod:`repro.stream.delta` -- validated, content-addressed
  :class:`EdgeDeltaBatch` insert/delete sets;
- :mod:`repro.stream.overlay` -- :class:`DeltaOverlayGraph`, one
  immutable CSR per version: each batch is spliced into the head's
  rows, and the read-only base the session opened on is never written;
- :mod:`repro.stream.incremental` -- incremental BFS / CC / PageRank
  seeded only from delta-touched vertices (CC merges component labels),
  converging to the cold fixed point on the post-delta graph;
- :mod:`repro.stream.session` -- journaled resident sessions the job
  service exposes as ``/v1/sessions``.

The names below resolve on first access (see :mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.stream.delta": ("EdgeDeltaBatch", "net_delta"),
    "repro.stream.incremental": (
        "BfsState",
        "CCState",
        "PRState",
        "cold_answer",
        "incremental_update",
        "push_pagerank",
        "seed_state",
    ),
    "repro.stream.overlay": ("DeltaOverlayGraph", "chain_digest"),
    "repro.stream.session": (
        "STREAM_MODES",
        "STREAM_WORKLOADS",
        "SessionManager",
        "SessionRecord",
        "SessionStore",
    ),
})

__all__ = [
    "EdgeDeltaBatch",
    "net_delta",
    "BfsState",
    "CCState",
    "PRState",
    "cold_answer",
    "incremental_update",
    "push_pagerank",
    "seed_state",
    "DeltaOverlayGraph",
    "chain_digest",
    "STREAM_MODES",
    "STREAM_WORKLOADS",
    "SessionManager",
    "SessionRecord",
    "SessionStore",
]
