"""``repro top``: a live terminal dashboard over one running service.

Polls the service's ``/healthz`` and ``/metrics`` (JSON form, which
carries the typed gauges and histogram snapshots) on an interval and
renders a compact frame: queue depth and running jobs, job counts by
state, submit/complete throughput (derived from counter deltas between
polls), and p50/p95 latencies read straight from the
``service.queue_wait_seconds`` / ``service.run_seconds`` histograms.

Rendering follows the :class:`~repro.runner.monitor.SweepMonitor`
idioms: on a TTY each frame clears the screen and redraws in place; on
a pipe frames print sequentially separated by a rule, so the dashboard
stays usable under ``watch``-less CI capture.  The clock and sleep are
injectable so tests can drive frames without real time passing, and
``snapshot()`` / ``render_frame()`` are usable programmatically
without any stream at all.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional, TextIO

from repro.obs.counters import histogram_quantile
from repro.runner.monitor import format_duration

#: ANSI clear-screen + home, the TTY frame preamble.
_CLEAR = "\x1b[2J\x1b[H"

#: Histograms surfaced as latency rows, in display order.
_LATENCY_ROWS = (
    ("queue wait", "service.queue_wait_seconds"),
    ("run", "service.run_seconds"),
)

#: Counters whose per-poll deltas become throughput rows.
_RATE_ROWS = (
    ("submitted", "service.submitted"),
    ("completed", "service.completed"),
    ("failed", "service.failed"),
)


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value < 1.0:
        return f"{value * 1000:.1f}ms"
    return format_duration(value)


class ServiceTop:
    """Poll one service and render dashboard frames.

    Args:
        client: a :class:`~repro.service.client.ServiceClient` (or any
            object with ``health()`` / ``metrics()``).
        stream: where frames go; ``None`` disables rendering (the
            snapshot API still works).
        interval_seconds: spacing between polls in :meth:`run`.
        clock: monotonic-seconds callable, injectable for tests.
        sleep: injectable for tests that drive frames without waiting.
    """

    def __init__(
        self,
        client,
        stream: Optional[TextIO] = None,
        interval_seconds: float = 2.0,
        clock: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.client = client
        self.stream = stream
        self.interval_seconds = max(0.1, float(interval_seconds))
        self._clock = clock if clock is not None else time.monotonic
        self._sleep = sleep if sleep is not None else time.sleep
        self._prev_counters: Dict[str, int] = {}
        self._prev_stamp: Optional[float] = None
        self._frames = 0
        isatty = getattr(stream, "isatty", None)
        self._tty = bool(isatty()) if callable(isatty) else False

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """One poll round: health + metrics + derived rates.

        Connection errors propagate -- a dashboard on a dead service
        should say so, not render blanks.
        """
        health = self.client.health()
        metrics = self.client.metrics()
        counters = metrics.get("counters", {})
        now = self._clock()
        rates: Dict[str, float] = {}
        if self._prev_stamp is not None:
            elapsed = max(1e-9, now - self._prev_stamp)
            for _, name in _RATE_ROWS:
                delta = counters.get(name, 0) - self._prev_counters.get(
                    name, 0
                )
                rates[name] = max(0.0, delta / elapsed)
        self._prev_counters = dict(counters)
        self._prev_stamp = now

        return {
            "health": health,
            "counters": counters,
            "gauges": metrics.get("gauges", {}),
            "histograms": metrics.get("histograms", {}),
            "rates": rates,
        }

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render_frame(self, snap: Dict[str, Any]) -> str:
        health = snap["health"]
        histograms = snap["histograms"]
        rates = snap["rates"]
        jobs = health.get("jobs", {})

        lines = [
            (
                f"repro top | service {health.get('status', '?')} "
                f"v{health.get('version', '?')} | up "
                f"{format_duration(health.get('uptime_seconds', 0.0))}"
            ),
            (
                f"queue {health.get('queue_depth', 0)}"
                f"/{health.get('max_queue_depth', '?')} | running "
                f"{health.get('running', 0)}/{health.get('job_workers', '?')}"
            ),
            "jobs  " + ("  ".join(
                f"{state}={jobs.get(state, 0)}"
                for state in (
                    "queued", "running", "done", "failed", "cancelled"
                )
                if state in jobs
            ) or "(none)"),
            "",
            "throughput (jobs/s since last poll)",
        ]
        for label, name in _RATE_ROWS:
            rate = rates.get(name)
            shown = f"{rate:.2f}" if rate is not None else "-"
            total = snap["counters"].get(name, 0)
            lines.append(f"  {label:<12} {shown:>8}   total {total}")

        lines.append("")
        lines.append("latency (histogram quantiles)")
        for label, name in _LATENCY_ROWS:
            hist = histograms.get(name)
            if hist is None or not hist.get("count"):
                lines.append(f"  {label:<14} {'-':>9} {'-':>9}   n=0")
                continue
            p50 = histogram_quantile(hist, 0.5)
            p95 = histogram_quantile(hist, 0.95)
            lines.append(
                f"  {label:<14} {_fmt_seconds(p50):>9} "
                f"{_fmt_seconds(p95):>9}   n={hist['count']}"
            )
        return "\n".join(lines)

    def _emit(self, frame: str) -> None:
        if self.stream is None:
            return
        if self._tty:
            self.stream.write(_CLEAR + frame + "\n")
        else:
            if self._frames:
                self.stream.write("-" * 64 + "\n")
            self.stream.write(frame + "\n")
        self.stream.flush()
        self._frames += 1

    # ------------------------------------------------------------------
    # Loop
    # ------------------------------------------------------------------

    def run(self, iterations: Optional[int] = None) -> int:
        """Poll-and-render until ``iterations`` frames (forever when
        ``None``); returns the number of frames rendered.  A burst of
        two quick polls seeds the counter deltas so the very first
        visible frame already shows throughput."""
        rendered = 0
        while iterations is None or rendered < iterations:
            self._emit(self.render_frame(self.snapshot()))
            rendered += 1
            if iterations is not None and rendered >= iterations:
                break
            try:
                self._sleep(self.interval_seconds)
            except KeyboardInterrupt:  # pragma: no cover - interactive
                break
        return rendered
