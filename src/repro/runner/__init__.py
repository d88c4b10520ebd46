"""Process-parallel sweep execution with a content-addressed run cache.

The simulator's experiments (scaling curves, sensitivity sweeps,
multi-source harness runs) are embarrassingly parallel: every
(config, graph, workload, source) combination is an independent
simulation.  This subsystem runs such sweeps in supervised forked
children and caches each completed
:class:`~repro.core.metrics.RunResult` on disk, keyed by a digest of
everything that determines the outcome -- so re-invoking a benchmark
suite recomputes nothing that already ran.

Execution is fault-tolerant: a spec that raises, exceeds its timeout,
or kills its child process yields a structured
:class:`~repro.runner.fault.RunFailure` while sibling runs complete and
store normally; transient failures retry with exponential backoff
(:class:`~repro.runner.fault.RetryPolicy`); and completed results flush
to the cache as they finish, so an interrupted sweep resumes with zero
recomputation: the run cache is the one record of what finished
(``repro sweep --resume`` counts it).

Environment knobs:

- ``REPRO_WORKERS``: most child processes per sweep round (default:
  ``os.cpu_count()``).
- ``REPRO_CACHE_DIR``: cache root (default ``~/.cache/repro-nova``).
- ``REPRO_CACHE_MAX_BYTES``: if set, prune least-recently-used entries
  past this size after each sweep.
- ``REPRO_RUN_TIMEOUT``: per-run wall-clock timeout in seconds, enforced
  by killing the run's child (default: none).
- ``REPRO_RUN_RETRIES``: extra attempts granted to transient failures
  (default 1).
- ``REPRO_RETRY_BACKOFF``: base backoff seconds between retry rounds
  (default 0.25, doubling per round).
- ``REPRO_GRAPH_STORE`` / ``REPRO_GRAPH_STORE_DIR`` /
  ``REPRO_GRAPH_STORE_MAX_BYTES``: the content-addressed mmap graph
  artifact store GraphSpec recipes resolve through (see
  :mod:`repro.graph.store`).
- ``REPRO_GRAPH_MEMO_SIZE``: per-process built-graph LRU memo capacity
  (default 8; 0 disables memoization).

Public entry points: :class:`~repro.runner.sweep.SweepRunner`,
:class:`~repro.runner.spec.RunSpec`, :class:`~repro.runner.spec.GraphSpec`.

The names below resolve on first access (see :mod:`repro._lazy`), so
a warm ``repro run`` loads the cache and the spec, not the sweep
supervisor.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.runner.cache": (
        "RunCache",
        "default_cache_dir",
        "graph_digest",
        "spec_key",
    ),
    "repro.runner.execute": ("execute_spec", "register_system"),
    "repro.runner.fault": ("RetryPolicy", "RunFailure"),
    "repro.runner.monitor": ("SweepMonitor",),
    "repro.runner.spec": ("GraphSpec", "RunSpec"),
    "repro.runner.sweep": ("SweepRunner", "SweepStats"),
})

__all__ = [
    "GraphSpec",
    "RetryPolicy",
    "RunCache",
    "RunFailure",
    "RunSpec",
    "SweepMonitor",
    "SweepRunner",
    "SweepStats",
    "default_cache_dir",
    "execute_spec",
    "graph_digest",
    "register_system",
    "spec_key",
]
