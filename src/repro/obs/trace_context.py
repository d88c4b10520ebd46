"""Cross-process trace-context propagation for REPRO_TRACE spans.

A :class:`TraceContext` is a W3C-traceparent-shaped identity for one
logical operation: a 32-hex-digit trace id shared by every span the
operation touches, plus the 16-hex-digit id of the span that is
"current" at this point in the call tree.  Contexts travel three ways:

* **In process** via a :mod:`contextvars` ``ContextVar`` — each
  :func:`repro.obs.tracing.trace_span` activates a child context for
  its body, so nested spans parent correctly across threads and
  asyncio tasks (each task gets its own context copy).
* **Over HTTP** via the ``X-Repro-Trace-Id`` header, carrying the
  ``traceparent`` string (:func:`inject_headers` /
  :func:`extract_headers`).
* **On job records** via ``JobSpec.trace``, so a job's trace identity
  survives the journal and a server restart.

Forked sweep and job children need no explicit plumbing: ``fork()``
clones the forking thread's contextvars, so the active span context at
the fork is simply inherited.

The traceparent wire shape is ``00-<trace_id>-<span_id>-01`` —
version 00, sampled flag always 01 (tracing here is all-or-nothing,
gated by ``REPRO_TRACE`` itself).
"""

from __future__ import annotations

import contextvars
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional

__all__ = [
    "TRACE_HEADER",
    "TraceContext",
    "activate",
    "current",
    "extract_headers",
    "inject_headers",
    "mint",
    "parse_traceparent",
]

TRACE_HEADER = "X-Repro-Trace-Id"

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

def current() -> Optional[TraceContext]:
    """The active context, or ``None`` outside every span."""
    return _CURRENT.get()


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
