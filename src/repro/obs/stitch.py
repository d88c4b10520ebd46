"""Stitch REPRO_TRACE JSONL files into a cross-process span tree.

Every process in a traced operation (client CLI, service, forked
sweep and job children) appends spans to whatever ``REPRO_TRACE``
file it inherited -- usually the *same* file, since the env variable
flows through ``fork``.
:func:`stitch` groups the records of one trace id and reconnects them
by ``span_id`` / ``parent_span_id`` into a tree; :func:`render_tree`
draws it as a waterfall with per-hop offsets and durations, which is
what the ``repro trace`` CLI verb prints.

Records without a ``trace_id`` (spans emitted before this layer, or
events fired outside any context) are simply ignored; records whose
parent never emitted a span are reported as *orphans* -- a healthy
end-to-end trace has none.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.trace_context import parse_traceparent
from repro.runner.monitor import format_duration

__all__ = [
    "SpanNode",
    "load_trace_records",
    "render_tree",
    "resolve_trace_id",
    "stitch",
    "summarize",
]


@dataclass
class SpanNode:
    record: Dict[str, object]
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def span_id(self) -> str:
        return str(self.record.get("span_id", ""))

    @property
    def name(self) -> str:
        return str(self.record.get("name", "?"))

    @property
    def ts(self) -> float:
        return float(self.record.get("ts", 0.0))

    @property
    def dur_ns(self) -> int:
        return int(self.record.get("dur_ns", 0))


def load_trace_records(paths: Sequence[str]) -> List[Dict[str, object]]:
    """All JSON records from the given JSONL files, torn lines skipped."""
    records: List[Dict[str, object]] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn tail line from a killed writer
                if isinstance(record, dict):
                    records.append(record)
    return records


def resolve_trace_id(
    records: Iterable[Dict[str, object]], token: str
) -> Optional[str]:
    """Map a user-supplied token to a trace id present in ``records``.

    Accepts a full trace id, a unique trace-id prefix (>= 6 hex
    chars), a traceparent string, or a job id (matched against the
    ``job`` attribute that service spans carry).
    """
    token = token.strip()
    ctx = parse_traceparent(token)
    if ctx is not None:
        return ctx.trace_id
    trace_ids = {
        str(r["trace_id"]) for r in records if r.get("trace_id")
    }
    if token in trace_ids:
        return token
    if len(token) >= 6:
        prefixed = sorted(t for t in trace_ids if t.startswith(token.lower()))
        if len(prefixed) == 1:
            return prefixed[0]
    for record in records:
        if record.get("job") == token and record.get("trace_id"):
            return str(record["trace_id"])
    return None


def stitch(
    records: Iterable[Dict[str, object]], trace_id: str
) -> Tuple[List[SpanNode], List[SpanNode]]:
    """Build the span tree for one trace: ``(roots, orphans)``.

    A record is a *root* when it has no ``parent_span_id``; an
    *orphan* when its parent id matches no span in the record set.
    Children sort by wall timestamp.  Duplicate span ids (one span id
    should never repeat) keep the first record and drop the rest into
    orphans for visibility.
    """
    nodes: Dict[str, SpanNode] = {}
    ordered: List[SpanNode] = []
    orphans: List[SpanNode] = []
    for record in records:
        if str(record.get("trace_id", "")) != trace_id:
            continue
        node = SpanNode(record)
        if not node.span_id:
            orphans.append(node)
            continue
        if node.span_id in nodes:
            orphans.append(node)
            continue
        nodes[node.span_id] = node
        ordered.append(node)
    roots: List[SpanNode] = []
    for node in ordered:
        parent_id = node.record.get("parent_span_id")
        if parent_id is None:
            roots.append(node)
        elif str(parent_id) in nodes:
            nodes[str(parent_id)].children.append(node)
        else:
            orphans.append(node)
    for node in ordered:
        node.children.sort(key=lambda child: child.ts)
    roots.sort(key=lambda node: node.ts)
    return roots, orphans


def summarize(
    roots: Sequence[SpanNode], orphans: Sequence[SpanNode]
) -> Dict[str, int]:
    def count(nodes: Sequence[SpanNode]) -> int:
        return sum(1 + count(n.children) for n in nodes)

    def pids(nodes: Sequence[SpanNode], seen: set) -> set:
        for node in nodes:
            seen.add(node.record.get("pid"))
            pids(node.children, seen)
        return seen

    return {
        "spans": count(roots) + len(orphans),
        "trees": len(roots),
        "orphans": len(orphans),
        "processes": len(pids(roots, pids(orphans, set()))),
    }


def _duration(node: SpanNode) -> str:
    if node.dur_ns <= 0:
        return "·"  # instantaneous event
    seconds = node.dur_ns / 1e9
    if seconds < 1.0:
        return f"{seconds * 1000.0:.1f}ms"
    return format_duration(seconds)


def render_tree(
    roots: Sequence[SpanNode],
    orphans: Sequence[SpanNode],
    trace_id: str,
) -> str:
    """The waterfall: one line per span, offset from the trace start."""
    lines: List[str] = []
    stats = summarize(roots, orphans)
    lines.append(
        f"trace {trace_id}  spans={stats['spans']} "
        f"processes={stats['processes']} trees={stats['trees']} "
        f"orphans={stats['orphans']}"
    )
    origin = min((r.ts for r in roots), default=0.0)

    def emit(node: SpanNode, prefix: str, tail: str) -> None:
        offset = max(0.0, node.ts - origin)
        label = f"{prefix}{tail}{node.name}"
        meta = (
            f"pid {node.record.get('pid', '?')}  "
            f"+{offset * 1000.0:9.1f}ms  {_duration(node)}"
        )
        if "error" in node.record:
            meta += f"  error={node.record['error']}"
        lines.append(f"{label:<48} {meta}")
        if tail == "":
            child_prefix = prefix
        elif tail == "└─ ":
            child_prefix = prefix + "   "
        else:
            child_prefix = prefix + "│  "
        for i, child in enumerate(node.children):
            last = i == len(node.children) - 1
            emit(child, child_prefix, "└─ " if last else "├─ ")

    for root in roots:
        emit(root, "", "")
    if orphans:
        lines.append("orphaned spans (parent never emitted):")
        for node in sorted(orphans, key=lambda n: n.ts):
            lines.append(
                f"  {node.name}  pid {node.record.get('pid', '?')}  "
                f"parent={node.record.get('parent_span_id')}"
            )
    return "\n".join(lines)
