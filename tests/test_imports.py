"""Import budget: each ``python -m repro`` verb loads only what it runs.

Every check runs a fresh interpreter (``PYTHONDONTWRITEBYTECODE=1``,
temporary run-cache and graph-store roots) and inspects the modules it
loaded.  A warm ``repro run`` answers from the run cache, so it must not
load the engine or scipy; scipy is only the oracle's accelerator and
loads on the oracle's first call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Subsystems ``import repro.cli`` must leave unloaded.
CLI_IMPORT_BUDGET = (
    "scipy",
    "repro.core.engine",
    "repro.baselines",
    "repro.analysis",
    "repro.service",
    "repro.stream",
    "repro.obs.report",
)

#: Runs ``python -m repro ARGS`` and writes the loaded modules to OUT.
_RUN_REPRO = textwrap.dedent(
    """
    import atexit, json, runpy, sys

    out = sys.argv[1]

    def dump():
        with open(out, "w", encoding="utf-8") as f:
            json.dump(sorted(sys.modules), f)

    atexit.register(dump)
    sys.argv = ["repro"] + sys.argv[2:]
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
    """
)


@pytest.fixture
def env(tmp_path):
    """A pinned child environment with empty cache and store roots."""
    child = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    child["PYTHONPATH"] = SRC
    child["PYTHONDONTWRITEBYTECODE"] = "1"
    child["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    child["REPRO_GRAPH_STORE_DIR"] = str(tmp_path / "store")
    return child


def _python(code: str, env, *args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


def _repro(env, tmp_path, *argv: str):
    """``(stdout, loaded modules)`` of one ``python -m repro`` run."""
    out = tmp_path / "modules.json"
    proc = _python(_RUN_REPRO, env, str(out), *argv)
    with open(out, encoding="utf-8") as f:
        return proc.stdout, set(json.load(f))


def _loaded(modules, prefix: str) -> bool:
    return any(m == prefix or m.startswith(prefix + ".") for m in modules)


def test_import_cli_stays_within_budget(env):
    proc = _python(
        "import json, sys, repro.cli; print(json.dumps(sorted(sys.modules)))",
        env,
    )
    modules = set(json.loads(proc.stdout))
    assert [p for p in CLI_IMPORT_BUDGET if _loaded(modules, p)] == []


def test_run_loads_no_scipy_and_warm_run_no_engine(env, tmp_path):
    argv = ("run", "--workload", "bfs", "--graph", "rmat:9:8")
    cold_out, cold = _repro(env, tmp_path, *argv)
    assert cold_out.startswith("cache miss")
    assert "repro.core.engine" in cold
    assert not _loaded(cold, "scipy")

    warm_out, warm = _repro(env, tmp_path, *argv)
    assert warm_out.startswith("cache hit")
    assert warm_out.splitlines()[1:] == cold_out.splitlines()[1:]
    assert not _loaded(warm, "scipy")
    assert "repro.core.engine" not in warm
    assert "repro.core.metrics" in warm


@pytest.mark.parametrize("workload", ["sssp", "cc"])
def test_verify_still_loads_scipy(env, tmp_path, workload):
    pytest.importorskip("scipy")
    out, modules = _repro(
        env, tmp_path,
        "run", "--workload", workload, "--graph", "rmat:9:8", "--verify",
    )
    assert "verified against the sequential oracle" in out
    assert "scipy.sparse.csgraph" in modules


@pytest.mark.parametrize("package", ["repro", "repro.core", "repro.graph",
                                     "repro.obs"])
def test_every_public_name_resolves(env, package):
    code = textwrap.dedent(
        f"""
        import importlib
        names = importlib.import_module({package!r}).__all__
        for name in names:
            exec("from {package} import " + name)
            assert eval(name) is not None, name
        print(len(names))
        """
    )
    assert int(_python(code, env).stdout) > 0


def test_pool_workers_fork_with_the_engine_loaded(env, tmp_path):
    """A multi-worker runner loads the executor before it forks."""
    code = textwrap.dedent(
        """
        import dataclasses, json, os, sys

        import repro.runner
        from repro.runner import GraphSpec, RunSpec, SweepRunner, register_system
        from repro.runner.sweep import execute_spec

        out_dir, parent = sys.argv[1], os.getpid()
        assert "repro.core.engine" not in sys.modules

        def probe(spec):
            before = set(sys.modules)
            result = execute_spec(dataclasses.replace(spec, system="nova"))
            with open(os.path.join(out_dir, f"{os.getpid()}-{spec.source}"),
                      "w", encoding="utf-8") as f:
                json.dump({
                    "forked": os.getpid() != parent,
                    "engine_at_start": "repro.core.engine" in before,
                    "imported": sorted(
                        m for m in set(sys.modules) - before
                        if m.startswith("repro")
                    ),
                }, f)
            return result

        register_system("probe", probe)
        specs = [
            RunSpec("bfs", GraphSpec("rmat:8:4", seed=1), system="probe",
                    source=source)
            for source in (1, 2, 3)
        ]
        SweepRunner(workers=2, use_cache=False).run(specs)
        """
    )
    out_dir = tmp_path / "probes"
    out_dir.mkdir()
    _python(code, env, str(out_dir))
    records = []
    for name in sorted(os.listdir(out_dir)):
        with open(out_dir / name, encoding="utf-8") as f:
            records.append(json.load(f))
    assert len(records) == 3
    for record in records:
        assert record == {"forked": True, "engine_at_start": True,
                          "imported": []}
