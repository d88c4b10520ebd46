"""Tests for trace-context propagation (repro.obs.trace_context)."""

from __future__ import annotations

import re

from repro.obs.trace_context import (
    TRACE_HEADER,
    TraceContext,
    activate,
    current,
    extract_headers,
    inject_headers,
    mint,
    parse_traceparent,
)

_TRACEPARENT_RE = re.compile(r"^00-[0-9a-f]{32}-[0-9a-f]{16}-01$")


class TestIdentity:
    def test_mint_shape(self):
        ctx = mint()
        assert len(ctx.trace_id) == 32
        assert len(ctx.span_id) == 16
        assert ctx.parent_id is None
        assert _TRACEPARENT_RE.match(ctx.traceparent())

    def test_mint_is_unique(self):
        a, b = mint(), mint()
        assert a.trace_id != b.trace_id
        assert a.span_id != b.span_id

    def test_child_keeps_trace_and_parents_here(self):
        root = mint()
        kid = root.child()
        assert kid.trace_id == root.trace_id
        assert kid.parent_id == root.span_id
        assert kid.span_id != root.span_id

    def test_roundtrip_through_traceparent(self):
        ctx = mint()
        parsed = parse_traceparent(ctx.traceparent())
        assert parsed is not None
        assert parsed.trace_id == ctx.trace_id
        assert parsed.span_id == ctx.span_id
        # The wire form carries no parent: the embedded span id is the
        # parent-to-be for the receiving side's next child span.
        assert parsed.parent_id is None


class TestParsing:
    def test_rejects_malformed(self):
        bad = [
            None,
            42,
            "",
            "garbage",
            "00-abc-def-01",                      # wrong lengths
            "01-" + "a" * 32 + "-" + "b" * 16 + "-01",  # wrong version
            "00-" + "g" * 32 + "-" + "b" * 16 + "-01",  # not hex
            "00-" + "0" * 32 + "-" + "b" * 16 + "-01",  # zero trace id
            "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # zero span id
            "00-" + "a" * 32 + "-" + "b" * 16,          # missing flags
        ]
        for text in bad:
            assert parse_traceparent(text) is None, text

    def test_lowercases_hex(self):
        upper = "00-" + "A" * 32 + "-" + "B" * 16 + "-01"
        ctx = parse_traceparent(upper)
        assert ctx.trace_id == "a" * 32
        assert ctx.span_id == "b" * 16


class TestActivation:
    def test_activate_nests_and_restores(self):
        assert current() is None
        outer, inner = mint(), mint()
        with activate(outer):
            assert current() is outer
            with activate(inner):
                assert current() is inner
            assert current() is outer
        assert current() is None

    def test_activate_none_is_noop(self):
        ctx = mint()
        with activate(ctx):
            with activate(None):
                assert current() is ctx


class TestHeaders:
    def test_inject_extract_roundtrip(self):
        ctx = mint()
        with activate(ctx):
            headers = inject_headers({"Accept": "application/json"})
        assert headers[TRACE_HEADER] == ctx.traceparent()
        # Server-side header maps are lowercased by the reader.
        lowered = {k.lower(): v for k, v in headers.items()}
        parsed = extract_headers(lowered)
        assert parsed.trace_id == ctx.trace_id

    def test_inject_without_context_adds_nothing(self):
        assert inject_headers({}) == {}

    def test_extract_missing_or_bad_header(self):
        assert extract_headers({}) is None
        assert extract_headers({TRACE_HEADER.lower(): "nope"}) is None


class TestFrozen:
    def test_context_is_immutable(self):
        ctx = mint()
        try:
            ctx.trace_id = "x"
        except AttributeError:
            return
        raise AssertionError("TraceContext should be frozen")

    def test_equality_by_value(self):
        a = TraceContext("a" * 32, "b" * 16)
        b = TraceContext("a" * 32, "b" * 16)
        assert a == b
