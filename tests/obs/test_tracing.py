"""Tests for REPRO_TRACE-gated span tracing (repro.obs.tracing)."""

from __future__ import annotations

import json

import pytest

from repro.obs import trace_context
from repro.obs.tracing import (
    ENV_VAR,
    refresh,
    trace_enabled,
    trace_event,
    trace_span,
    trace_target,
)


def read_jsonl(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


class TestGating:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert trace_target() is None
        assert trace_enabled() is False

    def test_blank_value_is_disabled(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "  ")
        assert trace_enabled() is False

    def test_enabled_by_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "trace.jsonl"))
        assert trace_enabled() is True

    def test_disabled_span_writes_nothing(self, monkeypatch, tmp_path):
        target = tmp_path / "trace.jsonl"
        monkeypatch.delenv(ENV_VAR, raising=False)
        with trace_span("noop"):
            pass
        assert not target.exists()


class TestEmission:
    def test_span_appends_one_json_line(self, monkeypatch, tmp_path):
        target = tmp_path / "trace.jsonl"
        monkeypatch.setenv(ENV_VAR, str(target))
        with trace_span("unit.test", workload="bfs", gpns=2):
            pass
        records = read_jsonl(target)
        assert len(records) == 1
        rec = records[0]
        assert rec["name"] == "unit.test"
        assert rec["workload"] == "bfs"
        assert rec["gpns"] == 2
        assert rec["dur_ns"] >= 0
        assert isinstance(rec["pid"], int)
        assert "error" not in rec

    def test_spans_append_not_truncate(self, monkeypatch, tmp_path):
        target = tmp_path / "trace.jsonl"
        monkeypatch.setenv(ENV_VAR, str(target))
        for i in range(3):
            with trace_span("loop", i=i):
                pass
        assert [r["i"] for r in read_jsonl(target)] == [0, 1, 2]

    def test_exception_propagates_and_is_recorded(self, monkeypatch, tmp_path):
        target = tmp_path / "trace.jsonl"
        monkeypatch.setenv(ENV_VAR, str(target))
        with pytest.raises(ValueError):
            with trace_span("boom"):
                raise ValueError("nope")
        (rec,) = read_jsonl(target)
        assert rec["error"] == "ValueError"

    def test_stderr_sink(self, monkeypatch, capsys):
        monkeypatch.setenv(ENV_VAR, "1")
        with trace_span("to.stderr"):
            pass
        err = capsys.readouterr().err
        rec = json.loads(err.strip().splitlines()[-1])
        assert rec["name"] == "to.stderr"


class TestSinkCache:
    def test_cached_until_refresh(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "a.jsonl"))
        assert trace_target() == str(tmp_path / "a.jsonl")
        # The parsed sink is cached per process: a bare env change is
        # invisible until refresh() drops the cache.
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "b.jsonl"))
        assert trace_target() == str(tmp_path / "a.jsonl")
        refresh()
        assert trace_target() == str(tmp_path / "b.jsonl")


class TestTraceIdentity:
    def test_span_mints_a_root(self, monkeypatch, tmp_path):
        target = tmp_path / "trace.jsonl"
        monkeypatch.setenv(ENV_VAR, str(target))
        with trace_span("root.op"):
            pass
        (rec,) = read_jsonl(target)
        assert len(rec["trace_id"]) == 32
        assert len(rec["span_id"]) == 16
        assert "parent_span_id" not in rec

    def test_nested_spans_share_trace_and_parent(self, monkeypatch, tmp_path):
        target = tmp_path / "trace.jsonl"
        monkeypatch.setenv(ENV_VAR, str(target))
        with trace_span("outer"):
            with trace_span("inner"):
                pass
        inner, outer = read_jsonl(target)  # inner closes first
        assert inner["trace_id"] == outer["trace_id"]
        assert inner["parent_span_id"] == outer["span_id"]

    def test_event_parents_under_enclosing_span(self, monkeypatch, tmp_path):
        target = tmp_path / "trace.jsonl"
        monkeypatch.setenv(ENV_VAR, str(target))
        with trace_span("outer"):
            trace_event("tick")
        event, outer = read_jsonl(target)
        assert event["parent_span_id"] == outer["span_id"]
        assert event["span_id"] != outer["span_id"]

    def test_event_without_context_is_idless(self, monkeypatch, tmp_path):
        target = tmp_path / "trace.jsonl"
        monkeypatch.setenv(ENV_VAR, str(target))
        trace_event("lonely")
        (rec,) = read_jsonl(target)
        assert "trace_id" not in rec

    def test_span_joins_activated_context(self, monkeypatch, tmp_path):
        target = tmp_path / "trace.jsonl"
        monkeypatch.setenv(ENV_VAR, str(target))
        ctx = trace_context.mint()
        with trace_context.activate(ctx):
            with trace_span("joined"):
                pass
        (rec,) = read_jsonl(target)
        assert rec["trace_id"] == ctx.trace_id
        assert rec["parent_span_id"] == ctx.span_id


class TestEngineIntegration:
    def test_nova_run_emits_span(self, monkeypatch, tmp_path, small_config, rmat_graph):
        from repro.core.system import NovaSystem

        target = tmp_path / "trace.jsonl"
        monkeypatch.setenv(ENV_VAR, str(target))
        NovaSystem(small_config, rmat_graph, placement="interleave").run(
            "bfs", source=0
        )
        names = [r["name"] for r in read_jsonl(target)]
        assert "nova.run" in names
