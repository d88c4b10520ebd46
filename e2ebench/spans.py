"""Span recording and the timing wrappers of the traced benchmark mode.

A :class:`SpanRecorder` keeps finished spans in memory (one list per
process) and writes them out as JSON lines when its process is done:
CLI children and the service process at exit, forked sweep workers
after every task.  Each span records its name, start and end
(``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on Linux and so
comparable across the processes of one host), its parent span, pid,
thread and op id.  Calls too frequent to keep one span each (the
per-quantum cache-model walk, the engine phases) are rolled up into
``agg`` totals on the span that encloses them.

:func:`install` wraps the public entry points of each ``repro`` layer
with spans.  It imports the program lazily, so this module itself is
stdlib-only and cheap to import before ``repro`` is timed.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterator, List, Optional

clock = time.perf_counter

#: Rolled-up children that run inside another rolled-up child: the
#: cache-model walk happens inside the engine's MPU phase.
NESTED_AGGREGATES = {"memory.cache": "core.mpu"}


class SpanRecorder:
    """In-memory spans of one process; thread-safe."""

    def __init__(self, op: str = "") -> None:
        self.op = op
        self._lock = threading.Lock()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A forked child starts with no spans of its own and no open
        # stacks: the parent's spans are the parent's to write.
        self.pid = os.getpid()
        self.records: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._flushes = 0

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, op: Optional[str], parent: Optional[str],
                attrs: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "id": f"{self.pid}:{next(self._ids)}",
            "parent": parent,
            "name": name,
            "pid": self.pid,
            "tid": threading.get_ident(),
            "op": self.op if op is None else op,
            "attrs": dict(attrs),
            "agg": {},
        }

    @contextmanager
    def span(self, name: str, op: Optional[str] = None,
             start: Optional[float] = None, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Time the ``with`` body (from ``start`` when given) as a span."""
        stack = self._stack()
        record = self._record(name, op, stack[-1]["id"] if stack else None, attrs)
        stack.append(record)
        record["start"] = clock() if start is None else start
        try:
            yield record
        finally:
            record["end"] = clock()
            stack.pop()
            with self._lock:
                self.records.append(record)

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Roll ``seconds`` into the innermost open span's ``agg[name]``."""
        stack = self._stack()
        if stack:
            total = stack[-1]["agg"].setdefault(name, [0.0, 0])
            total[0] += seconds
            total[1] += count

    def flush(self, directory: str) -> None:
        """Write this process's finished spans and forget them.

        The write is the benchmark's own work: it is timed as a
        ``bench.flush`` span, the file's last line.
        """
        start = clock()
        with self._lock:
            records, self.records = self.records, []
            self._flushes += 1
            index = self._flushes
        if not records:
            return
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"spans-{self.pid}-{index}.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            for record in records:
                f.write(json.dumps(record) + "\n")
            own = self._record("bench.flush", None, None, {})
            own.update(start=start, end=clock())
            f.write(json.dumps(own) + "\n")


class NullRecorder:
    """The untraced stand-in: spans cost nothing and record nothing."""

    def span(self, name: str, op: Optional[str] = None, **attrs: Any):
        return nullcontext({})


def load_spans(directory: str) -> List[Dict[str, Any]]:
    """Every span written under ``directory``."""
    spans: List[Dict[str, Any]] = []
    if not os.path.isdir(directory):
        return spans
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(directory, name), encoding="utf-8") as f:
                spans.extend(json.loads(line) for line in f if line.strip())
    return spans


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _timed(recorder: SpanRecorder, name: str, fn: Callable,
           after: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as record:
            out = fn(*args, **kwargs)
            if after is not None:
                after(record, out)
            return out

    return wrapper


def _rolled(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.add(name, clock() - start)

    return wrapper


def _replace_function(module_name: str, attr: str, wrapper_factory) -> None:
    """Rebind a module-level function everywhere ``repro`` imported it."""
    original = getattr(sys.modules[module_name], attr)
    wrapped = wrapper_factory(original)
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)


def _replace_method(cls: type, attr: str, wrapper_factory) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(wrapper_factory(raw.__func__)))
    else:
        setattr(cls, attr, wrapper_factory(raw))


def _graph_edges(record, out) -> None:
    record["attrs"]["edges"] = int(out.num_edges)


def _map_hit(record, out) -> None:
    record["attrs"]["hit"] = int(out is not None)


def _engine_wrapper(recorder: SpanRecorder, fn: Callable, trace_dir: str,
                    origin: int) -> Callable:
    """``NovaSystem.run`` with the PhaseProfiler on and run counts kept.

    In a process forked after :func:`install` (a sweep's pool worker)
    the spans are flushed after every run: the pool may end the worker
    without running its exit hooks.
    """

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        from repro.obs.config import ObsConfig, make_recorder

        profiler = None
        if kwargs.get("recorder") is None:
            profiler = make_recorder(
                ObsConfig(phases=True, phase_sample_every=1)
            )
            kwargs["recorder"] = profiler
        with recorder.span("core.engine") as record:
            run = fn(self, *args, **kwargs)
            if profiler is not None:
                for phase, total_ns in profiler.total_ns.items():
                    recorder.add(
                        f"core.{phase}", total_ns / 1e9,
                        profiler.samples.get(phase, 0),
                    )
            cache = run.stats.child("cache") if run.stats is not None else None
            record["attrs"].update(
                quanta=int(run.quanta),
                edges_traversed=int(run.edges_traversed),
                sim_us=float(run.elapsed_seconds) * 1e6,
                cache_hits=int(cache.get("hits")) if cache else 0,
                cache_misses=int(cache.get("misses")) if cache else 0,
            )
        if os.getpid() != origin:
            recorder.flush(trace_dir)
        return run

    return wrapper


def _query_wrapper(recorder: SpanRecorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, spec, *args, **kwargs):
        with recorder.span(f"stream.query_{spec.workload}"):
            return fn(self, spec, *args, **kwargs)

    return wrapper


class _AfterImport(importlib.abc.MetaPathFinder):
    """Run ``hooks[name](module)`` right after module ``name`` executes.

    Wrappers go on when a layer's module is first imported, so tracing
    adds no import the traced command would not make itself.
    """

    def __init__(self, hooks: Dict[str, Callable]) -> None:
        self.hooks = hooks

    def find_spec(self, fullname, path=None, target=None):
        hook = self.hooks.pop(fullname, None)
        if hook is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_hook(module):
            exec_module(module)
            hook(module)

        spec.loader.exec_module = exec_and_hook
        return spec


def install(recorder: SpanRecorder, trace_dir: str) -> None:
    """Wrap every measured layer entry point with spans.

    ``trace_dir`` is where forked pool workers write their spans.
    """
    origin = os.getpid()

    def timed(name, after=None):
        return lambda fn: _timed(recorder, name, fn, after)

    def graph_spec(m):
        _replace_method(m.GraphSpec, "build_uncached", timed("graph.build", _graph_edges))

    def csr(m):
        _replace_method(m.CSRGraph, "from_edges", timed("graph.csr", _graph_edges))
        _replace_method(m.CSRGraph, "symmetrized", timed("graph.symmetrize"))

    def store(m):
        _replace_method(m.GraphStore, "put", timed("graph.publish"))
        _replace_method(m.GraphStore, "load", timed("graph.map", _map_hit))

    def run_cache(m):
        _replace_function(m.__name__, "spec_key", timed("runner.key"))
        _replace_method(m.RunCache, "load", timed("runner.cache_load"))
        _replace_method(m.RunCache, "store", timed("runner.cache_store"))

    def sweep(m):
        _replace_method(m.SweepRunner, "run", timed("runner.sweep"))

    def system(m):
        _replace_method(m.NovaSystem, "run",
                        lambda fn: _engine_wrapper(recorder, fn, trace_dir, origin))

    def cache_model(m):
        _replace_method(m.CacheArray, "access", lambda fn: _rolled(recorder, "memory.cache", fn))

    def job_store(m):
        _replace_method(m.JobStore, "put", timed("service.journal"))

    def session(m):
        _replace_method(m.SessionStore, "append_delta", timed("stream.journal"))
        _replace_method(m.SessionStore, "put", timed("stream.journal"))
        _replace_method(m.SessionManager, "apply", timed("stream.delta_apply"))
        _replace_method(m.SessionManager, "execute_job", lambda fn: _query_wrapper(recorder, fn))

    hooks = {
        "repro.runner.spec": graph_spec,
        "repro.graph.csr": csr,
        "repro.graph.store": store,
        "repro.runner.cache": run_cache,
        "repro.runner.sweep": sweep,
        "repro.core.system": system,
        "repro.memory.cache": cache_model,
        "repro.service.store": job_store,
        "repro.stream.session": session,
    }
    pending = {}
    for name, hook in hooks.items():
        module = sys.modules.get(name)
        if module is not None:
            hook(module)
        else:
            pending[name] = hook
    if pending:
        sys.meta_path.insert(0, _AfterImport(pending))
