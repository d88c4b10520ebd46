"""Perf-regression tracking over the committed benchmark results.

``benchmarks/perf_smoke.py`` measures the hot path every run, but a
single measurement only gates against its immediate predecessor.
:class:`BenchHistory` keeps the trajectory: a
:class:`~repro.journal.Journal` (one git-SHA-stamped record per
benchmark invocation) whose rolling-median baseline absorbs one-off
machine noise, plus threshold-based :class:`RegressionVerdict` checks
that turn "this build is slower" into a failing exit code with a
rendered diff (``perf_smoke.py --against <history>`` and the CI
workflow).

Metric direction is inferred from the name: metrics containing
``overhead`` are lower-is-better and regress on an *absolute* increase
past the threshold (overheads hover near zero, so ratios are
meaningless); everything else (throughput, speedup) is higher-is-better
and regresses on a *relative* drop past the threshold.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.journal import Journal

#: History record format version.
HISTORY_SCHEMA = 1

#: Default file name inside a results directory.
HISTORY_BASENAME = "BENCH_history.jsonl"

#: Rolling-median window (records per metric).
DEFAULT_WINDOW = 5

#: Regression threshold: 10% relative drop / 10-point absolute rise.
DEFAULT_THRESHOLD = 0.10


def current_git_sha(cwd: Optional[str] = None) -> str:
    """The repo HEAD SHA, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.check_output(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            stderr=subprocess.DEVNULL,
        )
        return out.decode().strip() or "unknown"
    except Exception:
        return "unknown"


def lower_is_better(metric: str) -> bool:
    return "overhead" in metric


@dataclass
class RegressionVerdict:
    """One metric's comparison against its rolling-median baseline."""

    metric: str
    current: float
    baseline: float
    delta: float  # relative (higher-better) or absolute (lower-better)
    threshold: float
    regressed: bool
    samples: int
    mode: str  # "relative" | "absolute"

    def describe(self) -> str:
        status = "REGRESSED" if self.regressed else "ok"
        if self.mode == "relative":
            change = f"{self.delta:+.1%}"
            limit = f"-{self.threshold:.0%}"
        else:
            change = f"{self.delta:+.3f}"
            limit = f"+{self.threshold:.2f}"
        return (
            f"{self.metric}: {self.current:.4g} vs median {self.baseline:.4g}"
            f" over {self.samples} record(s) ({change}, limit {limit})"
            f"  [{status}]"
        )


class BenchHistory:
    """Append-only, git-SHA-stamped benchmark history with baselines."""

    def __init__(
        self,
        path: str,
        window: int = DEFAULT_WINDOW,
        threshold: float = DEFAULT_THRESHOLD,
    ) -> None:
        if window < 1:
            raise ConfigError("history window must be at least 1")
        if not 0 < threshold < 1:
            raise ConfigError("regression threshold must be in (0, 1)")
        self.path = path
        self.window = window
        self.threshold = threshold
        # No header line: every record carries its own schema.
        self._journal = Journal(path)

    @classmethod
    def at(cls, path: str, **kwargs) -> "BenchHistory":
        """History at ``path``; a directory resolves to its default file."""
        if os.path.isdir(path) or path.endswith(os.sep):
            path = os.path.join(path, HISTORY_BASENAME)
        return cls(path, **kwargs)

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------

    def records(self) -> List[Dict]:
        """Every complete history record of this schema, oldest first."""
        return [
            record
            for record in self._journal.replay()
            if record.get("schema") == HISTORY_SCHEMA
            and isinstance(record.get("metrics"), dict)
        ]

    def append(
        self,
        metrics: Dict[str, float],
        sha: Optional[str] = None,
        extra: Optional[Dict[str, object]] = None,
    ) -> Dict:
        """Stamp and append one record (idempotent per sha + metrics).

        Re-running the same benchmark at the same commit with identical
        numbers (e.g. repeated ``--check-only`` CI builds reading the
        committed result files) appends nothing.
        """
        record: Dict[str, object] = {
            "schema": HISTORY_SCHEMA,
            "sha": sha if sha is not None else current_git_sha(),
            "ts": time.time(),
            "metrics": {name: float(v) for name, v in sorted(metrics.items())},
        }
        if extra:
            record.update(extra)
        existing = self.records()
        if existing:
            last = existing[-1]
            if (
                last.get("sha") == record["sha"]
                and last.get("metrics") == record["metrics"]
            ):
                return last
        self._journal.append(record)
        return record

    # ------------------------------------------------------------------
    # Baselines and verdicts
    # ------------------------------------------------------------------

    def baseline(self, metric: str) -> Tuple[Optional[float], int]:
        """Rolling median of the metric's last ``window`` records."""
        values = [
            record["metrics"][metric]
            for record in self.records()
            if metric in record["metrics"]
        ][-self.window:]
        if not values:
            return None, 0
        return statistics.median(values), len(values)

    def check(self, metrics: Dict[str, float]) -> List[RegressionVerdict]:
        """Compare current metrics against their baselines.

        Metrics with no history yet are skipped (nothing to regress
        against); record them with :meth:`append` to seed the baseline.
        """
        verdicts: List[RegressionVerdict] = []
        for metric in sorted(metrics):
            current = float(metrics[metric])
            base, samples = self.baseline(metric)
            if base is None:
                continue
            if lower_is_better(metric):
                delta = current - base
                verdicts.append(
                    RegressionVerdict(
                        metric=metric,
                        current=current,
                        baseline=base,
                        delta=delta,
                        threshold=self.threshold,
                        regressed=delta > self.threshold,
                        samples=samples,
                        mode="absolute",
                    )
                )
            else:
                if base <= 0:
                    continue
                delta = current / base - 1.0
                verdicts.append(
                    RegressionVerdict(
                        metric=metric,
                        current=current,
                        baseline=base,
                        delta=delta,
                        threshold=self.threshold,
                        regressed=delta < -self.threshold,
                        samples=samples,
                        mode="relative",
                    )
                )
        return verdicts

    def render(self, verdicts: List[RegressionVerdict]) -> str:
        """Human-readable diff of current metrics vs baselines."""
        if not verdicts:
            return (
                "bench history: no baselines yet "
                f"({self.path}); current metrics recorded ungated"
            )
        regressed = sum(1 for v in verdicts if v.regressed)
        lines = [
            f"bench history vs rolling median (window {self.window}, "
            f"threshold {self.threshold:.0%}): "
            f"{len(verdicts)} metric(s), {regressed} regressed"
        ]
        for verdict in verdicts:
            lines.append("  " + verdict.describe())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Metric extraction from the committed BENCH_*.json files
# ----------------------------------------------------------------------


def metrics_from_reports(
    hotpath_cases: Dict[str, Dict],
    obs_cases: Optional[Dict[str, Dict]] = None,
    store_metrics: Optional[Dict[str, float]] = None,
    registry_metrics: Optional[Dict[str, float]] = None,
    stream_metrics: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Flatten perf_smoke's per-case reports into named history metrics."""
    out: Dict[str, float] = {}
    for case, entry in (hotpath_cases or {}).items():
        qps = entry.get("vectorized_quanta_per_sec")
        if qps:
            out[f"hotpath.{case}.vectorized_quanta_per_sec"] = float(qps)
        speedup = entry.get("speedup")
        if speedup:
            out[f"hotpath.{case}.speedup"] = float(speedup)
    for case, entry in (obs_cases or {}).items():
        overhead = entry.get("null_overhead_vs_baseline")
        if overhead is not None:
            out[f"obs.{case}.null_overhead"] = float(overhead)
    for name, value in (store_metrics or {}).items():
        # Already speedups (higher is better): map-vs-rebuild and the
        # cold-vs-warm sweep wall clock from BENCH_graph_store.json.
        out[f"graph_store.{name}"] = float(value)
    for name, value in (registry_metrics or {}).items():
        # MetricsRegistry seam cost from BENCH_obs.json; "overhead" in
        # the name makes these lower-is-better with an absolute gate.
        out[f"obs.metrics_registry.{name}"] = float(value)
    for name, value in (stream_metrics or {}).items():
        # Incremental-vs-cold speedups from BENCH_stream.json.
        out[f"stream.{name}"] = float(value)
    return out


def metrics_from_bench_dir(results_dir: str) -> Dict[str, float]:
    """History metrics from a ``benchmarks/results`` directory."""
    def _load(basename: str, key: str) -> Dict[str, Dict]:
        path = os.path.join(results_dir, basename)
        try:
            with open(path, encoding="utf-8") as f:
                return json.load(f).get(key, {})
        except (OSError, json.JSONDecodeError):
            return {}

    return metrics_from_reports(
        _load("BENCH_hotpath.json", "cases"),
        _load("BENCH_obs.json", "cases"),
        _load("BENCH_graph_store.json", "metrics"),
        _load("BENCH_obs.json", "metrics_registry").get("metrics", {}),
        _load("BENCH_stream.json", "metrics"),
    )
