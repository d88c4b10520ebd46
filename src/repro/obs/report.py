"""Cross-run aggregation: sweep-level bottleneck and outlier reports.

A sweep produces one :class:`~repro.core.metrics.RunResult` per
(workload, graph, PE count, source) cell; this module joins them back
into one picture.  :class:`SweepReport` groups :class:`ReportEntry`
rows over configurable spec dimensions, aggregates per-group throughput
statistics and -- when runs were instrumented with a timeline --
per-group bottleneck-class and resource shares via
:class:`~repro.obs.profile.BottleneckReport`, and flags anomalous runs:
a run whose throughput sits beyond a configurable z-threshold from its
group, or whose dominant bottleneck class disagrees with the group's
clear majority.

The export is deliberately deterministic: entries are sorted, the JSON
is ``sort_keys`` + schema-versioned (:data:`REPORT_SCHEMA`), and no
wall-clock timestamps are embedded -- the same run cache always renders
byte-identical JSON and markdown, so reports diff cleanly across
commits.  ``repro report`` builds entries straight from the run cache
(see :func:`repro.commands.sweep.cmd_report`).
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.obs.profile import BottleneckReport
from repro.obs.recorder import BOTTLENECK_NAMES, BOUND_CLASSES

#: Report export format version (bump on any shape change).
REPORT_SCHEMA = 1

#: Spec dimensions a report may group over.
GROUPABLE_DIMS = ("workload", "graph", "gpns", "source")

DEFAULT_GROUP_BY = ("workload", "graph", "gpns")
DEFAULT_Z_THRESHOLD = 3.0

#: Smallest group that supports a z-score (std of 2 points is meaningless).
MIN_GROUP_FOR_Z = 3

#: Per-run metrics screened for z-score divergence.
_Z_METRICS = ("gteps", "edges_per_quantum")


@dataclass
class ReportEntry:
    """One sweep slot joined with its cached result (if any).

    ``status`` is ``"ok"`` (result loaded), ``"failed"`` (the sweep
    recorded a :class:`~repro.runner.fault.RunFailure`), or
    ``"missing"`` (never computed / evicted).  ``report`` carries the
    run's :class:`BottleneckReport` when it was instrumented with a
    timeline; uninstrumented runs aggregate throughput only.
    """

    key: str
    workload: str
    graph: str
    gpns: int
    source: Optional[int] = None
    pes: Optional[int] = None
    status: str = "missing"
    failure_kind: Optional[str] = None
    gteps: Optional[float] = None
    elapsed_seconds: Optional[float] = None
    quanta: Optional[int] = None
    edges_per_quantum: Optional[float] = None
    report: Optional[BottleneckReport] = None


def entry_from_result(
    key: str,
    workload: str,
    graph: str,
    gpns: int,
    source: Optional[int],
    result: object,
    pes: Optional[int] = None,
) -> ReportEntry:
    """Join one sweep slot with whatever the cache / sweep returned.

    ``result`` may be a :class:`~repro.core.metrics.RunResult`, a
    :class:`~repro.runner.fault.RunFailure` (recognized by its ``kind``
    attribute, duck-typed so :mod:`repro.obs` never imports
    :mod:`repro.runner`), or ``None`` for a missing run.
    """
    entry = ReportEntry(
        key=key, workload=workload, graph=graph, gpns=int(gpns),
        source=source, pes=pes,
    )
    if result is None:
        return entry
    kind = getattr(result, "kind", None)
    if kind is not None and not hasattr(result, "elapsed_seconds"):
        entry.status = "failed"
        entry.failure_kind = str(kind)
        return entry
    entry.status = "ok"
    entry.gteps = float(result.gteps)
    entry.elapsed_seconds = float(result.elapsed_seconds)
    entry.quanta = int(result.quanta)
    entry.edges_per_quantum = (
        result.edges_traversed / result.quanta if result.quanta else 0.0
    )
    timeline = getattr(result, "timeline", None)
    if timeline is not None:
        entry.report = BottleneckReport.from_timeline(timeline)
    return entry


def _summary(values: Sequence[float]) -> Dict[str, float]:
    return {
        "mean": statistics.fmean(values),
        "std": statistics.pstdev(values) if len(values) > 1 else 0.0,
        "min": min(values),
        "max": max(values),
    }


def _modal(counts: Dict[str, int], order: Sequence[str]) -> Optional[str]:
    """Highest-count name, breaking ties by the canonical order."""
    present = [name for name in order if counts.get(name, 0) > 0]
    if not present:
        return None
    return max(present, key=lambda name: (counts[name], -order.index(name)))


class SweepReport:
    """Aggregate one sweep's entries into groups, shares, and outliers."""

    def __init__(
        self,
        entries: Sequence[ReportEntry],
        group_by: Sequence[str] = DEFAULT_GROUP_BY,
        z_threshold: float = DEFAULT_Z_THRESHOLD,
    ) -> None:
        group_by = tuple(group_by)
        for dim in group_by:
            if dim not in GROUPABLE_DIMS:
                raise ConfigError(
                    f"cannot group by {dim!r}; choose from "
                    f"{', '.join(GROUPABLE_DIMS)}"
                )
        if not group_by:
            raise ConfigError("group_by needs at least one dimension")
        if z_threshold <= 0:
            raise ConfigError("z_threshold must be positive")
        self.group_by = group_by
        self.z_threshold = float(z_threshold)
        # Deterministic entry order: dimension tuple, then key.
        self.entries = sorted(
            entries,
            key=lambda e: (
                e.workload, e.graph, e.gpns,
                (0, e.source) if e.source is not None else (-1, 0),
                e.key,
            ),
        )
        self._groups: Dict[Tuple, List[ReportEntry]] = {}
        for entry in self.entries:
            self._groups.setdefault(self._group_key(entry), []).append(entry)

    def _group_key(self, entry: ReportEntry) -> Tuple:
        return tuple(getattr(entry, dim) for dim in self.group_by)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def _group_cell(self, key: Tuple, members: List[ReportEntry]) -> Dict:
        ok = [e for e in members if e.status == "ok"]
        cell: Dict[str, object] = {
            "key": dict(zip(self.group_by, key)),
            "runs": len(members),
            "ok": len(ok),
            "failed": sum(1 for e in members if e.status == "failed"),
            "missing": sum(1 for e in members if e.status == "missing"),
        }
        pes = sorted({e.pes for e in members if e.pes is not None})
        if len(pes) == 1:
            cell["pes"] = pes[0]
        if ok:
            cell["gteps"] = _summary([e.gteps for e in ok])
            cell["edges_per_quantum"] = _summary(
                [e.edges_per_quantum for e in ok]
            )
            cell["elapsed_seconds_mean"] = statistics.fmean(
                [e.elapsed_seconds for e in ok]
            )
            cell["quanta_total"] = sum(e.quanta for e in ok)
        cell["bottleneck"] = self._bottleneck_cell(ok)
        return cell

    @staticmethod
    def _bottleneck_cell(ok: List[ReportEntry]) -> Optional[Dict]:
        reports = [e.report for e in ok if e.report is not None]
        if not reports:
            return None
        class_seconds = {name: 0.0 for name in BOUND_CLASSES}
        resource_seconds = {name: 0.0 for name in BOTTLENECK_NAMES}
        dominant_counts: Dict[str, int] = {}
        total = 0.0
        for report in reports:
            total += report.elapsed_seconds
            for name in BOUND_CLASSES:
                class_seconds[name] += report.class_seconds.get(name, 0.0)
            for name in BOTTLENECK_NAMES:
                resource_seconds[name] += report.resource_seconds.get(
                    name, 0.0
                )
            dom = report.dominant_class
            dominant_counts[dom] = dominant_counts.get(dom, 0) + 1
        if total > 0:
            class_shares = {
                name: class_seconds[name] / total for name in BOUND_CLASSES
            }
            resource_shares = {
                name: resource_seconds[name] / total
                for name in BOTTLENECK_NAMES
            }
        else:
            class_shares = {name: 0.0 for name in BOUND_CLASSES}
            resource_shares = {name: 0.0 for name in BOTTLENECK_NAMES}
        return {
            "timelines": len(reports),
            "class_shares": class_shares,
            "resource_shares": resource_shares,
            "dominant_class": _modal(dominant_counts, BOUND_CLASSES),
            "dominant_resource": (
                max(
                    BOTTLENECK_NAMES,
                    key=lambda n: (
                        resource_seconds[n],
                        -BOTTLENECK_NAMES.index(n),
                    ),
                )
                if total > 0
                else None
            ),
            "dominant_class_counts": {
                name: dominant_counts[name]
                for name in BOUND_CLASSES
                if name in dominant_counts
            },
        }

    def outliers(self) -> List[Dict]:
        """Runs diverging from their group (z-score or dominant class).

        Z-screening needs at least :data:`MIN_GROUP_FOR_Z` ok runs and a
        nonzero spread; dominant-class screening needs a clear majority
        class (> half the instrumented runs) to diverge from.
        """
        found: List[Dict] = []
        for key, members in self._groups.items():
            ok = [e for e in members if e.status == "ok"]
            group = dict(zip(self.group_by, key))
            for metric in _Z_METRICS:
                values = [getattr(e, metric) for e in ok]
                if len(values) < MIN_GROUP_FOR_Z:
                    continue
                mean = statistics.fmean(values)
                std = statistics.pstdev(values)
                if std <= 0:
                    continue
                for entry, value in zip(ok, values):
                    z = (value - mean) / std
                    if abs(z) > self.z_threshold:
                        found.append(
                            {
                                "group": group,
                                "key": entry.key,
                                "source": entry.source,
                                "metric": metric,
                                "value": value,
                                "group_mean": mean,
                                "group_std": std,
                                "z": z,
                                "reason": (
                                    f"{metric} z={z:+.2f} beyond "
                                    f"±{self.z_threshold:g}"
                                ),
                            }
                        )
            instrumented = [
                e for e in ok
                if e.report is not None and e.report.quanta > 0
            ]
            if len(instrumented) >= 2:
                counts: Dict[str, int] = {}
                for entry in instrumented:
                    dom = entry.report.dominant_class
                    counts[dom] = counts.get(dom, 0) + 1
                modal = _modal(counts, BOUND_CLASSES)
                if modal is not None and counts[modal] * 2 > len(instrumented):
                    for entry in instrumented:
                        dom = entry.report.dominant_class
                        if dom != modal:
                            found.append(
                                {
                                    "group": group,
                                    "key": entry.key,
                                    "source": entry.source,
                                    "metric": "dominant_class",
                                    "value": dom,
                                    "expected": modal,
                                    "reason": (
                                        f"dominant class {dom} vs group "
                                        f"majority {modal}"
                                    ),
                                }
                            )
        found.sort(
            key=lambda o: (
                str(sorted(o["group"].items())), o["metric"], o["key"]
            )
        )
        return found

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        with_timeline = sum(
            1 for e in self.entries if e.report is not None
        )
        return {
            "schema": REPORT_SCHEMA,
            "group_by": list(self.group_by),
            "z_threshold": self.z_threshold,
            "totals": {
                "runs": len(self.entries),
                "ok": sum(1 for e in self.entries if e.status == "ok"),
                "failed": sum(
                    1 for e in self.entries if e.status == "failed"
                ),
                "missing": sum(
                    1 for e in self.entries if e.status == "missing"
                ),
                "groups": len(self._groups),
                "with_timeline": with_timeline,
            },
            "groups": [
                self._group_cell(key, members)
                for key, members in self._groups.items()
            ],
            "outliers": self.outliers(),
        }

    def to_json(self) -> str:
        """Byte-stable JSON export (sorted keys, trailing newline)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render_markdown(self) -> str:
        data = self.to_dict()
        totals = data["totals"]
        lines = [
            "# Sweep report",
            "",
            f"- runs: {totals['runs']} ({totals['ok']} ok, "
            f"{totals['failed']} failed, {totals['missing']} missing) in "
            f"{totals['groups']} groups",
            f"- timelines joined: {totals['with_timeline']}",
            f"- group-by: {', '.join(data['group_by'])}; "
            f"outlier z-threshold: {data['z_threshold']:g}",
            "",
            "## Groups",
            "",
            "| group | runs | ok | GTEPS mean | GTEPS std | mean time (ms)"
            " | dominant |",
            "|---|---|---|---|---|---|---|",
        ]
        for cell in data["groups"]:
            label = ", ".join(
                f"{dim}={cell['key'][dim]}" for dim in data["group_by"]
            )
            gteps = cell.get("gteps")
            bottleneck = cell.get("bottleneck")
            if bottleneck and bottleneck["dominant_class"]:
                dominant = (
                    f"{bottleneck['dominant_class']} "
                    f"({bottleneck['dominant_resource']})"
                )
            else:
                dominant = "-"
            lines.append(
                "| {label} | {runs} | {ok} | {mean} | {std} | {ms} | "
                "{dom} |".format(
                    label=label,
                    runs=cell["runs"],
                    ok=cell["ok"],
                    mean=f"{gteps['mean']:.3f}" if gteps else "-",
                    std=f"{gteps['std']:.3f}" if gteps else "-",
                    ms=(
                        f"{cell['elapsed_seconds_mean'] * 1e3:.4f}"
                        if "elapsed_seconds_mean" in cell
                        else "-"
                    ),
                    dom=dominant,
                )
            )
        shared = [
            cell for cell in data["groups"] if cell.get("bottleneck")
        ]
        if shared:
            lines += [
                "",
                "## Bottleneck shares",
                "",
                "| group | bandwidth | compute | queue | timelines |",
                "|---|---|---|---|---|",
            ]
            for cell in shared:
                label = ", ".join(
                    f"{dim}={cell['key'][dim]}" for dim in data["group_by"]
                )
                shares = cell["bottleneck"]["class_shares"]
                lines.append(
                    f"| {label} | {shares['bandwidth']:.1%} | "
                    f"{shares['compute']:.1%} | {shares['queue']:.1%} | "
                    f"{cell['bottleneck']['timelines']} |"
                )
        lines += ["", "## Outliers", ""]
        if data["outliers"]:
            for outlier in data["outliers"]:
                label = ", ".join(
                    f"{dim}={outlier['group'][dim]}"
                    for dim in data["group_by"]
                )
                source = (
                    "-" if outlier.get("source") is None
                    else outlier["source"]
                )
                detail = outlier["reason"]
                if "value" in outlier and "group_mean" in outlier:
                    detail += (
                        f" ({outlier['value']:.4g} vs group mean "
                        f"{outlier['group_mean']:.4g})"
                    )
                lines.append(
                    f"- `{label}` source={source}: {detail}"
                )
        else:
            lines.append("none detected")
        lines.append("")
        return "\n".join(lines)
