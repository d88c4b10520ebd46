"""Live sweep telemetry: per-key status, throughput, and ETA.

:class:`SweepMonitor` plugs into :meth:`SweepRunner.run
<repro.runner.sweep.SweepRunner.run>` and observes the sweep from the
parent process: every unique key moves through ``pending`` ->
``running`` -> ``hit`` / ``computed`` / ``failed`` (with ``retry``
bouncing a key back to ``pending``), and each transition updates a
throughput estimate and an ETA derived from completed-run wall-clock
durations (mean computed-run duration x remaining keys / workers --
cache hits are free, so only real executions feed the estimate).

Rendering is TTY-aware: on a terminal the progress line redraws in
place (carriage return); on a pipe it prints at most one full line per
``interval_seconds``; with ``stream=None`` nothing is written but the
status ledger and ``sweep.progress`` trace events still update, so the
monitor doubles as a programmatic progress API.  Resumed sweeps need no
special handling -- runs an earlier invocation finished resolve as
cache hits, which count toward ``done`` from the first render.

The clock is injectable (``clock=...``) so throttling and ETA are unit
testable without sleeping.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, Optional, TextIO

from repro.obs.tracing import trace_event

#: Per-key lifecycle states.
PENDING = "pending"
RUNNING = "running"
HIT = "hit"
COMPUTED = "computed"
FAILED = "failed"

_STATES = (PENDING, RUNNING, HIT, COMPUTED, FAILED)
_DONE_STATES = (HIT, COMPUTED, FAILED)


def format_duration(seconds: float) -> str:
    """``90.5`` -> ``"1m30s"``; sub-minute values keep one decimal."""
    seconds = max(0.0, float(seconds))
    if seconds < 60.0:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    hours, minutes = divmod(minutes, 60)
    if hours:
        return f"{hours}h{minutes:02d}m"
    return f"{minutes}m{secs:02d}s"


class SweepMonitor:
    """Track and render one sweep's per-key progress.

    Args:
        stream: where progress lines go (``sys.stderr`` in the CLI);
            ``None`` disables rendering but keeps state and tracing.
        interval_seconds: minimum spacing between rendered lines (and
            ``sweep.progress`` trace events).  The first and final
            updates always render.
        clock: monotonic-seconds callable, injectable for tests.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        interval_seconds: float = 1.0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if interval_seconds < 0:
            raise ValueError("interval_seconds must be non-negative")
        self.stream = stream
        self.interval_seconds = interval_seconds
        self._clock = clock if clock is not None else time.monotonic
        self.status: Dict[str, str] = {}
        self.retries: Dict[str, int] = {}
        self.workers = 1
        self._durations: list = []
        self._started_at: Optional[float] = None
        self._last_emit: Optional[float] = None
        self._line_len = 0
        isatty = getattr(stream, "isatty", None)
        self._tty = bool(isatty()) if callable(isatty) else False

    # ------------------------------------------------------------------
    # Runner-facing transitions
    # ------------------------------------------------------------------

    def begin(self, keys: Iterable[str], workers: int = 1) -> None:
        """Start tracking one sweep's unique keys."""
        self.status = {key: PENDING for key in keys}
        self.retries = {}
        self.workers = max(1, int(workers))
        self._durations = []
        self._started_at = self._clock()
        self._last_emit = None

    def hit(self, key: str) -> None:
        """One key resolved from the cache (including resumed runs)."""
        self.status[key] = HIT
        self._emit()

    def running(self, key: str) -> None:
        """One key was submitted for execution."""
        if self.status.get(key) == PENDING:
            self.status[key] = RUNNING
        self._emit()

    def retry(self, key: str) -> None:
        """One key failed transiently and is queued for another round."""
        self.retries[key] = self.retries.get(key, 0) + 1
        self.status[key] = PENDING
        self._emit()

    def finish(self, key: str, ok: bool, elapsed_seconds: float = 0.0) -> None:
        """One key settled for good (computed or permanently failed)."""
        self.status[key] = COMPUTED if ok else FAILED
        if ok and elapsed_seconds > 0:
            self._durations.append(float(elapsed_seconds))
        self._emit()

    def end(self) -> None:
        """Render the final state and release the terminal line."""
        self._emit(force=True)
        if self.stream is not None and self._tty and self._line_len:
            self.stream.write("\n")
            self.stream.flush()
            self._line_len = 0

    # ------------------------------------------------------------------
    # Derived telemetry
    # ------------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Key count per lifecycle state (every state always present)."""
        out = {state: 0 for state in _STATES}
        for state in self.status.values():
            out[state] += 1
        return out

    @property
    def total(self) -> int:
        return len(self.status)

    @property
    def done(self) -> int:
        """Settled keys: cache hits + computed + permanently failed."""
        counts = self.counts()
        return sum(counts[state] for state in _DONE_STATES)

    @property
    def retried(self) -> int:
        return sum(self.retries.values())

    def throughput(self) -> Optional[float]:
        """Settled keys per wall-clock second since :meth:`begin`."""
        if self._started_at is None:
            return None
        elapsed = self._clock() - self._started_at
        if elapsed <= 0 or self.done == 0:
            return None
        return self.done / elapsed

    def eta_seconds(self) -> Optional[float]:
        """Remaining wall-clock estimate from computed-run durations.

        Cache hits resolve in microseconds and would wildly inflate a
        rate-based estimate on a resumed sweep, so the ETA uses only
        real execution durations: ``remaining x mean(duration) /
        workers``.  ``None`` until the first computed run lands.
        """
        counts = self.counts()
        remaining = counts[PENDING] + counts[RUNNING]
        if remaining == 0:
            return 0.0
        if not self._durations:
            return None
        mean = sum(self._durations) / len(self._durations)
        return remaining * mean / self.workers

    def progress_line(self) -> str:
        counts = self.counts()
        parts = [
            f"sweep {self.done}/{self.total}",
            f"{counts[HIT]} hit",
            f"{counts[COMPUTED]} computed",
        ]
        if counts[FAILED]:
            parts.append(f"{counts[FAILED]} failed")
        if self.retried:
            parts.append(f"{self.retried} retried")
        if counts[RUNNING]:
            parts.append(f"{counts[RUNNING]} running")
        line = parts[0] + " (" + ", ".join(parts[1:]) + ")"
        rate = self.throughput()
        if rate is not None:
            line += f" | {rate:.1f} runs/s"
        eta = self.eta_seconds()
        if eta is not None and self.done < self.total:
            line += f" | eta {format_duration(eta)}"
        return line

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def _emit(self, force: bool = False) -> None:
        now = self._clock()
        if (
            not force
            and self._last_emit is not None
            and now - self._last_emit < self.interval_seconds
        ):
            return
        self._last_emit = now
        counts = self.counts()
        trace_event(
            "sweep.progress",
            total=self.total,
            done=self.done,
            hit=counts[HIT],
            computed=counts[COMPUTED],
            failed=counts[FAILED],
            running=counts[RUNNING],
            retried=self.retried,
            eta_seconds=self.eta_seconds(),
        )
        self._render()

    def _render(self) -> None:
        if self.stream is None:
            return
        line = self.progress_line()
        if self._tty:
            # Redraw in place, blank-padding any leftover characters.
            padded = line.ljust(self._line_len)
            self._line_len = len(line)
            self.stream.write("\r" + padded)
        else:
            self.stream.write(line + "\n")
        self.stream.flush()
