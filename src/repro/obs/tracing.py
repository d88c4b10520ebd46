"""Structured span tracing, gated by the ``REPRO_TRACE`` env variable.

When ``REPRO_TRACE`` is unset, :func:`trace_span` is a no-op costing one
cached-tuple read per span -- spans wrap coarse operations (one run,
one sweep, one CLI command), never the per-quantum hot path.  When set,
every span appends one JSON line::

    {"name": "nova.run", "ts": 1754500000.1, "dur_ns": 81234567,
     "pid": 4242, "trace_id": "4bf9...", "span_id": "00f0...",
     "parent_span_id": "d75e...", "workload": "bfs", ...}

``REPRO_TRACE=<path>`` appends to that file; ``1`` / ``true`` /
``stderr`` write to stderr.  Lines are self-contained JSON objects
(JSONL), so traces from concurrent sweep workers interleave safely --
each line is written in a single ``write`` under a process-local lock.

The sink is parsed from the environment once per process and cached;
call :func:`refresh` after mutating ``REPRO_TRACE`` (tests do this via
an autouse fixture).  The cache is keyed per pid so forked sweep
workers inherit it for free while a hypothetical pre-fork mutation
still re-reads.

Trace identity: when a :mod:`repro.obs.trace_context` context is
active, spans and events carry ``trace_id`` / ``span_id`` /
``parent_span_id`` fields.  A :func:`trace_span` with no active
context *mints a new trace root*, so top-level operations (``repro
sweep``, ``ServiceClient.submit``) start a trace without explicit
plumbing; every nested span -- across
threads, asyncio tasks, forked workers, and (via headers / JobSpec
records) remote processes -- becomes a child.  ``repro trace`` stitches
the resulting records back into one tree.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from repro.obs import trace_context as _tc

ENV_VAR = "REPRO_TRACE"

_STDERR_VALUES = ("1", "true", "stderr")
_lock = threading.Lock()


def _unlock_in_child() -> None:
    # A forked sweep child must not inherit the lock held by another
    # thread of its parent at the fork: it would hang at its first span.
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_unlock_in_child)

# (pid, parsed sink) -- parsed once per process, dropped by refresh().
_SINK_CACHE: Optional[Tuple[int, Optional[str]]] = None


def _read_target() -> Optional[str]:
    value = os.environ.get(ENV_VAR, "").strip()
    return value or None


def trace_target() -> Optional[str]:
    """The configured sink (path or stderr marker), or ``None`` if off.

    Cached per process; call :func:`refresh` after changing the env
    variable (e.g. from a test) to force a re-read.
    """
    global _SINK_CACHE
    pid = os.getpid()
    cache = _SINK_CACHE
    if cache is None or cache[0] != pid:
        cache = (pid, _read_target())
        _SINK_CACHE = cache
    return cache[1]


def refresh() -> None:
    """Drop the cached sink for tests."""
    global _SINK_CACHE
    _SINK_CACHE = None


def trace_enabled() -> bool:
    return trace_target() is not None


def _emit(record: dict) -> None:
    target = trace_target()
    if target is None:  # env changed mid-span: drop silently
        return
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    with _lock:
        if target.lower() in _STDERR_VALUES:
            sys.stderr.write(line)
        else:
            with open(target, "a", encoding="utf-8") as f:
                f.write(line)


def _stamp(record: dict, ctx: Optional[_tc.TraceContext]) -> dict:
    if ctx is not None:
        record["trace_id"] = ctx.trace_id
        record["span_id"] = ctx.span_id
        if ctx.parent_id is not None:
            record["parent_span_id"] = ctx.parent_id
    return record


def trace_event(name: str, **attrs: object) -> None:
    """Emit one instantaneous JSONL record when tracing is enabled.

    Like :func:`trace_span` but for point-in-time facts with no
    duration -- sweep summaries, retries, failures.  A no-op (one
    cached read) when ``REPRO_TRACE`` is unset.  Events never start a
    trace: with an active context they record a fresh span id under
    the current parent; without one they stay id-less.
    """
    if not trace_enabled():
        return
    record = {
        "name": name,
        "ts": time.time(),
        "dur_ns": 0,
        "pid": os.getpid(),
    }
    ctx = _tc.current()
    _stamp(record, ctx.child() if ctx is not None else None)
    record.update(attrs)
    _emit(record)


@contextmanager
def trace_span(name: str, **attrs: object) -> Iterator[None]:
    """Time a block and emit one JSONL record when tracing is enabled.

    Extra keyword arguments become fields of the record (keep them
    JSON-serializable).  Exceptions propagate; the span still emits,
    with an ``error`` field naming the exception type.

    The span derives a child of the active trace context (minting a
    new trace root when there is none) and activates it for the body,
    so nested spans/events -- including those in threads started or
    processes forked inside the body -- parent under this span.
    """
    if not trace_enabled():
        yield
        return
    parent = _tc.current()
    span = parent.child() if parent is not None else _tc.mint()
    wall = time.time()
    start = time.perf_counter_ns()
    error: Optional[str] = None
    try:
        with _tc.activate(span):
            yield
    except BaseException as exc:
        error = type(exc).__name__
        raise
    finally:
        record = {
            "name": name,
            "ts": wall,
            "dur_ns": time.perf_counter_ns() - start,
            "pid": os.getpid(),
        }
        if error is not None:
            record["error"] = error
        _stamp(record, span)
        record.update(attrs)
        _emit(record)
