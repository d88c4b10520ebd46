"""The glibc malloc threshold pin :mod:`repro.runner.execute` applies at
import: the two ``mallopt`` calls, and the cases where it stays off."""

from __future__ import annotations

import ctypes
import os

import pytest

from repro.runner import execute


class _FakeMallopt:
    def __init__(self, calls):
        self.calls = calls

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


class _FakeLibc:
    def __init__(self, calls):
        self.mallopt = _FakeMallopt(calls)


@pytest.fixture
def calls(monkeypatch):
    """Record ``mallopt`` calls instead of making them; start from an
    environment with no malloc tuning."""
    for name in list(os.environ):
        if name == "GLIBC_TUNABLES" or (
            name.startswith("MALLOC_") and name.endswith("_")
        ):
            monkeypatch.delenv(name)
    recorded = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _FakeLibc(recorded))
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    return recorded


def test_pins_both_thresholds(calls):
    execute._pin_malloc_thresholds()
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]


def test_no_op_when_the_library_does_not_load(calls, monkeypatch):
    def refuse(name):
        raise OSError("no libc here")

    monkeypatch.setattr(ctypes, "CDLL", refuse)
    execute._pin_malloc_thresholds()
    assert calls == []


@pytest.mark.parametrize("name, value", [
    ("MALLOC_MMAP_THRESHOLD_", "131072"),
    ("MALLOC_TRIM_THRESHOLD_", "0"),
    ("MALLOC_ARENA_MAX_", "2"),
    ("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=65536"),
])
def test_no_op_when_the_user_tunes_malloc(calls, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    execute._pin_malloc_thresholds()
    assert calls == []


def test_no_op_off_glibc(calls, monkeypatch):
    def unknown(name):
        raise ValueError("unrecognized configuration name")

    monkeypatch.setattr(os, "confstr", unknown)
    execute._pin_malloc_thresholds()
    assert calls == []
