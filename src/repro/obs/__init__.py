"""Quantum-level observability: metrics recorders, tracing, profiling.

The engines in :mod:`repro.core` expose one hook per quantum through the
:class:`~repro.obs.recorder.MetricsRecorder` protocol.  The default
:class:`~repro.obs.recorder.NullRecorder` costs one branch per quantum;
:class:`~repro.obs.recorder.TimelineRecorder` keeps a ring buffer of
per-quantum counters and utilizations;
:class:`~repro.obs.recorder.PhaseProfiler` samples wall-time per engine
phase.  :mod:`repro.obs.tracing` adds env-gated structured span tracing
(``REPRO_TRACE``), :mod:`repro.obs.counters` keeps the process-wide
fault/retry counters sweeps report into (:data:`FAULT_COUNTERS`), and
:mod:`repro.obs.profile` turns a recorded timeline into a
bottleneck-attribution report (the ``repro profile`` CLI subcommand).

On top of the per-run layer, :mod:`repro.obs.report` aggregates a whole
sweep's results into grouped bottleneck/outlier reports (the ``repro
report`` CLI subcommand) and :mod:`repro.obs.bench_history` tracks the
benchmark trajectory across commits with rolling-median regression
verdicts (``benchmarks/perf_smoke.py --against``).

The distributed layer: :mod:`repro.obs.trace_context` propagates
W3C-traceparent-shaped trace/span ids across threads, forks, HTTP
hops, and subprocess environments; :mod:`repro.obs.stitch` joins the
resulting JSONL spans back into one tree (``repro trace``);
:class:`~repro.obs.counters.MetricsRegistry` adds gauges and
log-bucketed histograms next to the counters; and
:mod:`repro.obs.prom` renders/validates the Prometheus text
exposition the service serves on ``GET /metrics?format=prom``.

The names below resolve on first access, so the run path's counters
and tracing do not load the report, profile or bench-history layers.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.bench_history": ("BenchHistory", "RegressionVerdict"),
    "repro.obs.config": ("ObsConfig", "make_recorder"),
    "repro.obs.counters": (
        "DEFAULT_BUCKETS",
        "DEFAULT_HISTOGRAMS",
        "FAULT_COUNTERS",
        "CounterRegistry",
        "Histogram",
        "MetricsRegistry",
        "histogram_quantile",
        "render_counts",
    ),
    "repro.obs.profile": ("BottleneckReport",),
    "repro.obs.prom": ("render_prometheus", "validate_exposition"),
    "repro.obs.recorder": (
        "MetricsRecorder",
        "NullRecorder",
        "PhaseProfiler",
        "QuantumObservation",
        "TimelineRecorder",
    ),
    "repro.obs.report": ("ReportEntry", "SweepReport", "entry_from_result"),
    "repro.obs.trace_context": ("TraceContext",),
    "repro.obs.tracing": ("trace_enabled", "trace_event", "trace_span"),
})

__all__ = [
    "ObsConfig",
    "make_recorder",
    "BenchHistory",
    "BottleneckReport",
    "CounterRegistry",
    "DEFAULT_BUCKETS",
    "DEFAULT_HISTOGRAMS",
    "FAULT_COUNTERS",
    "Histogram",
    "MetricsRecorder",
    "MetricsRegistry",
    "NullRecorder",
    "PhaseProfiler",
    "QuantumObservation",
    "RegressionVerdict",
    "ReportEntry",
    "SweepReport",
    "TimelineRecorder",
    "TraceContext",
    "entry_from_result",
    "histogram_quantile",
    "render_counts",
    "render_prometheus",
    "trace_enabled",
    "trace_event",
    "trace_span",
    "validate_exposition",
]
