"""Cross-process trace-context propagation for REPRO_TRACE spans.

A :class:`TraceContext` is a W3C-traceparent-shaped identity for one
logical operation: a 32-hex-digit trace id shared by every span the
operation touches, plus the 16-hex-digit id of the span that is
"current" at this point in the call tree.  Contexts travel four ways:

* **In process** via a :mod:`contextvars` ``ContextVar`` — each
  :func:`repro.obs.tracing.trace_span` activates a child context for
  its body, so nested spans parent correctly across threads and
  asyncio tasks (each task gets its own context copy).
* **Over HTTP** via the ``X-Repro-Trace-Id`` header, carrying the
  ``traceparent`` string (:func:`inject_headers` /
  :func:`extract_headers`).
* **On job records** via ``JobSpec.trace``, so a job's trace identity
  survives the journal and a server restart.
* **Into subprocesses** via the ``REPRO_TRACEPARENT`` environment
  variable (:func:`inject_env`); a process with no in-process context
  falls back to the parsed env value, cached per process (call
  :func:`refresh` after mutating the variable in tests).

Forked sweep workers need no explicit plumbing: ``fork()`` clones the
submitting thread's contextvars, so the active span context at pool
submission time is simply inherited.

The traceparent wire shape is ``00-<trace_id>-<span_id>-01`` —
version 00, sampled flag always 01 (tracing here is all-or-nothing,
gated by ``REPRO_TRACE`` itself).
"""

from __future__ import annotations

import contextvars
import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional

__all__ = [
    "ENV_TRACEPARENT",
    "TRACE_HEADER",
    "TraceContext",
    "activate",
    "current",
    "extract_headers",
    "inject_env",
    "inject_headers",
    "mint",
    "parse_traceparent",
    "refresh",
]

TRACE_HEADER = "X-Repro-Trace-Id"
ENV_TRACEPARENT = "REPRO_TRACEPARENT"

_VERSION = "00"
_FLAGS = "01"
_TRACE_ID_HEX = 32
_SPAN_ID_HEX = 16


@dataclass(frozen=True)
class TraceContext:
    """One point in a trace: ``span_id`` under trace ``trace_id``.

    ``parent_id`` is the span id of the enclosing span, or ``None``
    for a trace root.  Instances are immutable; derive descendants
    with :meth:`child`.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None

    def traceparent(self) -> str:
        """The W3C-shaped wire form: ``00-<trace>-<span>-01``."""
        return f"{_VERSION}-{self.trace_id}-{self.span_id}-{_FLAGS}"

    def child(self) -> "TraceContext":
        """A fresh span id under the same trace, parented here."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=_new_span_id(),
            parent_id=self.span_id,
        )


def _new_trace_id() -> str:
    return secrets.token_hex(_TRACE_ID_HEX // 2)


def _new_span_id() -> str:
    return secrets.token_hex(_SPAN_ID_HEX // 2)


def mint() -> TraceContext:
    """A brand-new root context (fresh trace id, no parent)."""
    return TraceContext(trace_id=_new_trace_id(), span_id=_new_span_id())


def parse_traceparent(text: object) -> Optional[TraceContext]:
    """Parse a traceparent string; ``None`` on any malformation.

    The parsed context has ``parent_id=None``: the embedded span id
    becomes the parent once a local child span activates under it.
    """
    if not isinstance(text, str):
        return None
    parts = text.strip().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, _flags = parts
    if version != _VERSION:
        return None
    if len(trace_id) != _TRACE_ID_HEX or len(span_id) != _SPAN_ID_HEX:
        return None
    try:
        int(trace_id, 16)
        int(span_id, 16)
    except ValueError:
        return None
    if trace_id == "0" * _TRACE_ID_HEX or span_id == "0" * _SPAN_ID_HEX:
        return None
    return TraceContext(trace_id=trace_id.lower(), span_id=span_id.lower())


# In-process propagation.  ContextVar gives asyncio tasks and threads
# independent views; fork() clones the forking thread's value.
_CURRENT: contextvars.ContextVar[Optional[TraceContext]] = (
    contextvars.ContextVar("repro_trace_context", default=None)
)

# Parsed REPRO_TRACEPARENT, cached per process.  A one-element tuple
# distinguishes "cached None" from "not yet parsed".
_ENV_CACHE: Optional[tuple] = None


def _env_context() -> Optional[TraceContext]:
    global _ENV_CACHE
    if _ENV_CACHE is None:
        _ENV_CACHE = (parse_traceparent(os.environ.get(ENV_TRACEPARENT)),)
    return _ENV_CACHE[0]


def refresh() -> None:
    """Drop the cached ``REPRO_TRACEPARENT`` parse (for tests)."""
    global _ENV_CACHE
    _ENV_CACHE = None


def current() -> Optional[TraceContext]:
    """The active context: ContextVar first, env fallback second."""
    ctx = _CURRENT.get()
    if ctx is not None:
        return ctx
    return _env_context()


@contextmanager
def activate(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Make ``ctx`` current for the body; no-op when ``ctx`` is None."""
    if ctx is None:
        yield None
        return
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)


def inject_headers(headers: Dict[str, str]) -> Dict[str, str]:
    """Add the active context's traceparent header, if any."""
    ctx = current()
    if ctx is not None:
        headers[TRACE_HEADER] = ctx.traceparent()
    return headers


def extract_headers(headers: Mapping[str, str]) -> Optional[TraceContext]:
    """Parse the traceparent header from a (lowercased) header map."""
    raw = headers.get(TRACE_HEADER.lower()) or headers.get(TRACE_HEADER)
    return parse_traceparent(raw)


def inject_env(env: Dict[str, str]) -> Dict[str, str]:
    """Add the active context's traceparent to a subprocess env."""
    ctx = current()
    if ctx is not None:
        env[ENV_TRACEPARENT] = ctx.traceparent()
    return env
