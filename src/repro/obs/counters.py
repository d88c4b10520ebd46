"""Process-wide fault and retry counters.

Sweep execution is a parent-process concern (workers report outcomes
back; the parent classifies and retries them), so its
failure/retry/timeout accounting lives in one thread-safe registry
rather than in the per-run :class:`~repro.obs.recorder.MetricsRecorder`
timeline -- a failed run has no timeline at all.

The shared :data:`FAULT_COUNTERS` registry is incremented by
:class:`~repro.runner.sweep.SweepRunner` under ``sweep.*`` names
(``sweep.failures``, ``sweep.retries``, ``sweep.timeouts``,
``sweep.worker_deaths``, ``sweep.checkpoint_flushes``,
``sweep.cache_errors``) and by the
:class:`~repro.graph.store.GraphStore` under ``graph_store.*`` names
(``graph_store.hits`` / ``misses`` / ``builds`` artifact traffic,
``graph_store.build_ms`` cumulative build milliseconds,
``graph_store.lock_waits`` builders that blocked on a concurrent
build, ``graph_store.evictions`` / ``corrupt`` / ``put_errors``
hygiene), and by the job service under ``service.*`` names (job
traffic, and ``service.quota_rejected`` / ``rate_limited``
per-tenant admission), surfacing in ``repro sweep`` / ``repro
profile`` output and the service's ``/metrics`` endpoint.

:class:`MetricsRegistry` extends the counter bag with **gauges**
(last-write-wins floats: ``service.queue_depth``,
``service.running_jobs``) and **histograms** (fixed log-scale buckets
over seconds: ``service.queue_wait_seconds``, ``service.run_seconds``,
``sweep.run_seconds``, ``graph_store.build_seconds``, and the
``stream.*`` session timings), all behind the same lock discipline.  :data:`FAULT_COUNTERS` *is* a
``MetricsRegistry``, so every existing ``increment`` call site keeps
working and the service's ``/metrics`` endpoint (JSON and Prometheus
exposition) reads one registry.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


def render_counts(counts: Dict[str, int], prefix: str = "fault counters") -> str:
    """One-line rendering of a counter snapshot or delta."""
    if not counts:
        return f"{prefix}: none recorded"
    body = " ".join(f"{name}={value}" for name, value in sorted(counts.items()))
    return f"{prefix}: {body}"


class CounterRegistry:
    """A named bag of monotonically increasing integer counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}

    def increment(self, name: str, amount: int = 1) -> int:
        """Add ``amount`` to ``name`` and return the new value."""
        with self._lock:
            value = self._counts.get(name, 0) + int(amount)
            self._counts[name] = value
            return value

    def get(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        """A point-in-time copy of every counter."""
        with self._lock:
            return dict(self._counts)

    def delta_since(self, snapshot: Dict[str, int]) -> Dict[str, int]:
        """Counts accumulated since ``snapshot`` (zero deltas omitted).

        The registry is process-wide and never reset by sweeps, so
        per-sweep accounting snapshots it up front and reads the delta
        afterwards -- consecutive sweeps in one process then report
        their own counts, not the cumulative ones.
        """
        out: Dict[str, int] = {}
        for name, value in self.snapshot().items():
            delta = value - snapshot.get(name, 0)
            if delta:
                out[name] = delta
        return out

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()

    def render(self, prefix: str = "fault counters") -> str:
        return render_counts(self.snapshot(), prefix)


#: Half-decade log-scale bucket upper bounds in seconds: 100us, ~316us,
#: 1ms, ... up to ~316s, plus an implicit +Inf overflow bucket.  One
#: fixed ladder for every latency histogram keeps Prometheus exposition
#: and cross-family comparison trivial.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    round(1e-4 * 10 ** (i / 2), 10) for i in range(13)
)

#: Histogram families pre-declared on the process-wide registry, so
#: the exposition endpoint always advertises them (with zero counts)
#: even before the first observation.
DEFAULT_HISTOGRAMS: Tuple[str, ...] = (
    "service.queue_wait_seconds",
    "service.run_seconds",
    "sweep.run_seconds",
    "graph_store.build_seconds",
    "stream.delta_apply_seconds",
    "stream.query_seconds",
)


class Histogram:
    """Fixed-bucket histogram: per-bucket counts plus sum and count.

    Not thread-safe by itself -- :class:`MetricsRegistry` serializes
    access under its lock.  ``bounds`` are the finite upper edges; an
    overflow (+Inf) bucket is implicit at the end.
    """

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, float(value))] += 1
        self.count += 1
        self.sum += float(value)

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly cumulative view: ``[[le, cumulative], ...]``.

        The final entry's ``le`` is the string ``"+Inf"`` and its
        cumulative count equals ``count``, matching the Prometheus
        histogram contract.
        """
        cumulative = 0
        buckets: List[List[object]] = []
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            buckets.append([bound, cumulative])
        buckets.append(["+Inf", self.count])
        return {"count": self.count, "sum": self.sum, "buckets": buckets}


def histogram_quantile(snapshot: Dict[str, object], q: float) -> Optional[float]:
    """Estimate the ``q``-quantile from a :meth:`Histogram.snapshot`.

    Linear interpolation within the containing bucket (Prometheus'
    ``histogram_quantile`` convention); the overflow bucket clamps to
    its lower edge.  ``None`` when the histogram is empty.
    """
    count = int(snapshot.get("count", 0))
    buckets = snapshot.get("buckets") or []
    if count <= 0 or not buckets:
        return None
    q = min(max(float(q), 0.0), 1.0)
    rank = q * count
    prev_bound, prev_cum = 0.0, 0
    for bound, cumulative in buckets:
        if cumulative >= rank:
            if bound == "+Inf":
                return float(prev_bound)
            width = float(bound) - prev_bound
            in_bucket = cumulative - prev_cum
            if in_bucket <= 0 or width <= 0:
                return float(bound)
            frac = (rank - prev_cum) / in_bucket
            return prev_bound + width * min(max(frac, 0.0), 1.0)
        if bound != "+Inf":
            prev_bound, prev_cum = float(bound), int(cumulative)
    return float(prev_bound)


class MetricsRegistry(CounterRegistry):
    """Counters plus last-write-wins gauges and fixed-bucket histograms.

    Same near-zero-cost discipline as the tracing layer's disabled
    path: one lock acquisition, a dict lookup, and O(log buckets) per
    observation -- cheap enough for per-job seams, and never called
    from the per-quantum hot path.
    """

    def __init__(self) -> None:
        super().__init__()
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # Gauges ----------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            return
        with self._lock:
            self._gauges[name] = value

    def gauge(self, name: str) -> Optional[float]:
        with self._lock:
            return self._gauges.get(name)

    def gauges(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._gauges)

    # Histograms ------------------------------------------------------
    def declare_histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        """Register an (empty) histogram family ahead of observations."""
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(bounds)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name`` (auto-declared)."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    @contextmanager
    def time_histogram(self, name: str) -> Iterator[None]:
        """Observe the body's wall duration (seconds) into ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    def histograms(self) -> Dict[str, Dict[str, object]]:
        with self._lock:
            return {
                name: hist.snapshot()
                for name, hist in self._histograms.items()
            }

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()
            self._gauges.clear()
            # Declared families survive a reset (zeroed, not dropped),
            # so exposition keeps advertising them.
            self._histograms = {
                name: Histogram(hist.bounds)
                for name, hist in self._histograms.items()
            }


#: The process-wide registry sweeps report into.
FAULT_COUNTERS = MetricsRegistry()
for _name in DEFAULT_HISTOGRAMS:
    FAULT_COUNTERS.declare_histogram(_name)
del _name


def _unlock_in_child() -> None:
    # A lock another thread held at a fork stays held forever in the
    # child, so a forked sweep child would hang at its first count.
    # One hook for the process-wide registry, not one per instance.
    FAULT_COUNTERS._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_unlock_in_child)
