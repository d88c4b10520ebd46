"""Shared plumbing: pinned environment, child processes, statistics."""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BOOTSTRAP = os.path.join(HERE, "bootstrap.py")

#: Sentinel latency of a failed or refused op ("+inf"), kept finite so
#: the result line stays strict JSON.
FAILED_LATENCY = 1e9

#: ``repro serve`` as the benchmark boots it: the CLI defaults.
SERVE_SETTINGS = {
    "job_workers": 2,
    "run_workers": 1,
    "queue_depth": 64,
    "batch_limit": 1,
    "fleet_workers": 0,
}


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def pinned_env(cache_dir: str, store_dir: str) -> Dict[str, str]:
    """The program's environment: no ``REPRO_*`` knob but the two roots.

    No child writes bytecode, so every run compiles the program the same
    way whatever an earlier run left in the checkout.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["REPRO_CACHE_DIR"] = cache_dir
    env["REPRO_GRAPH_STORE_DIR"] = store_dir
    return env


def pin_process_env(cache_dir: str, store_dir: str) -> None:
    """Pin this process (and the sweep children it forks) the same way."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    os.environ["REPRO_GRAPH_STORE_DIR"] = store_dir


def environment_record() -> Dict[str, Any]:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "serve": SERVE_SETTINGS,
    }


class WorkDir:
    """A per-run scratch root inside the checkout, removed on exit."""

    def __init__(self, name: str) -> None:
        base = os.path.join(ROOT, ".e2ebench_work")
        self.path = os.path.join(base, f"{name}-{os.getpid()}-{time.time_ns()}")
        os.makedirs(self.path)

    def sub(self, *parts: str) -> str:
        path = os.path.join(self.path, *parts)
        os.makedirs(path, exist_ok=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass


def repro_argv(args: Sequence[str], trace_dir: Optional[str] = None,
               op: str = "") -> List[str]:
    """``python -m repro ARGS``, or the tracing bootstrap around it."""
    if trace_dir is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, BOOTSTRAP, trace_dir, op, *args]


@dataclass
class ChildResult:
    returncode: int
    stdout: str
    stderr: str
    seconds: float


def run_child(argv: Sequence[str], env: Dict[str, str],
              timeout: float = 170.0) -> ChildResult:
    """Run one child to completion and time it."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return ChildResult(-1, "", f"timed out after {timeout:g}s",
                           time.perf_counter() - start)
    return ChildResult(proc.returncode, proc.stdout, proc.stderr,
                       time.perf_counter() - start)


class Server:
    """A live ``repro serve`` child on an ephemeral port."""

    def __init__(self, argv: Sequence[str], env: Dict[str, str],
                 boot_timeout: float = 60.0) -> None:
        self.proc = subprocess.Popen(
            argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        self.url: Optional[str] = None
        deadline = time.monotonic() + boot_timeout
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if "listening on " in line:
                self.url = line.split("listening on ", 1)[1].strip()
                break
        if self.url is None:
            self.stop()
            raise RuntimeError("repro serve did not come up")

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (graceful drain) and reap; returns the exit code."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.proc.returncode


def repeat_passes(run_pass: Callable[[int, bool], Any], seconds: float,
                  traced: bool) -> Tuple[List[Any], Any]:
    """Run a workload's fixed op list as repeated passes.

    Untraced, passes repeat while another one as long as the last is
    expected to end within ``seconds`` (at least one runs).  Traced,
    exactly one untraced pass runs, then one traced pass over the same
    inputs.  ``run_pass(index, traced)`` returns the pass's record;
    returns ``(untraced records, traced record or None)``.
    """
    records: List[Any] = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        records.append(run_pass(len(records), traced and len(records) == 1))
        if traced:
            if len(records) == 2:
                return records[:1], records[1]
            continue
        now = time.perf_counter()
        if (now - begin) + (now - start) > seconds:
            return records, None


def children_maxrss_kib() -> int:
    """Peak RSS of the largest child process reaped so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def self_and_children_maxrss_kib() -> int:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               children_maxrss_kib())


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly beyond the ``q`` percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


@dataclass
class Outcome:
    """What one workload run measured."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: List[str] = field(default_factory=list)
    notes: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.wrong.append(message)
