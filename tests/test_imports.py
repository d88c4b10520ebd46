"""Import budget: each ``python -m repro`` verb loads only what it runs.

Every check runs a fresh interpreter (``PYTHONDONTWRITEBYTECODE=1``,
temporary run-cache and graph-store roots) and inspects the modules it
loaded.  A warm ``repro run`` answers from the run cache, so it must not
load the engine or scipy; scipy is only the oracle's accelerator and
loads on the oracle's first call.  Package ``__init__`` modules export
through :func:`repro._lazy.lazy_exports` and import no submodule, and
every verb other than ``run`` lives in a :mod:`repro.commands` module
that only that verb imports.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.cli import _resolve_handler, make_parser

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Every package under ``src/repro``.
PACKAGES = sorted(
    "repro" + dirpath[len(os.path.join(SRC, "repro")):].replace(os.sep, ".")
    for dirpath, _, filenames in os.walk(os.path.join(SRC, "repro"))
    if "__init__.py" in filenames
)

#: Subsystems ``import repro.cli`` must leave unloaded.
CLI_IMPORT_BUDGET = (
    "scipy",
    "repro.core.engine",
    "repro.baselines",
    "repro.analysis",
    "repro.commands",
    "repro.runner",
    "repro.service",
    "repro.stream",
    "repro.obs.report",
)

#: Exactly the ``repro`` modules a warm ``repro run`` loads: the parser,
#: the run cache and its key, the graph store's manifest, and the config
#: the key digests.  The hit prints the entry's header, so neither the
#: result class nor the graph (nor numpy) loads.
WARM_RUN_MODULES = frozenset({
    "repro",
    "repro._lazy",
    "repro.cli",
    "repro.env",
    "repro.errors",
    "repro.graph",
    "repro.graph.store",
    "repro.memory",
    "repro.memory.spec",
    "repro.obs",
    "repro.obs.counters",
    "repro.obs.trace_context",
    "repro.obs.tracing",
    "repro.runner",
    "repro.runner.cache",
    "repro.runner.spec",
    "repro.sim",
    "repro.sim.config",
    "repro.units",
})

#: Most ``repro`` modules a cold ``repro run`` (build, simulate, store)
#: may load.
COLD_RUN_BUDGET = 44

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


def _pinned_env(root) -> dict:
    child = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    child["PYTHONPATH"] = SRC
    child["PYTHONDONTWRITEBYTECODE"] = "1"
    child["REPRO_CACHE_DIR"] = str(root / "cache")
    child["REPRO_GRAPH_STORE_DIR"] = str(root / "store")
    return child


@pytest.fixture
def env(tmp_path):
    """A pinned child environment with empty cache and store roots."""
    return _pinned_env(tmp_path)


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


def _ours(modules) -> set:
    return {m for m in modules if m == "repro" or m.startswith("repro.")}


@pytest.fixture(scope="module")
def run_pair(tmp_path_factory):
    """``(stdout, modules)`` of a cold, then a warm, ``repro run``."""
    root = tmp_path_factory.mktemp("run")
    env = _pinned_env(root)
    argv = ("run", "--workload", "bfs", "--graph", "rmat:9:8")
    return _repro(env, root, *argv), _repro(env, root, *argv)


def test_import_cli_stays_within_budget(env):
    proc = _python(
        "import json, sys, repro.cli; print(json.dumps(sorted(sys.modules)))",
        env,
    )
    modules = set(json.loads(proc.stdout))
    assert [p for p in CLI_IMPORT_BUDGET if _loaded(modules, p)] == []


def test_run_loads_no_scipy_and_warm_run_no_engine(run_pair):
    (cold_out, cold), (warm_out, warm) = run_pair
    assert cold_out.startswith("cache miss")
    assert "repro.core.engine" in cold
    assert not _loaded(cold, "scipy")

    assert warm_out.startswith("cache hit")
    assert warm_out.splitlines()[1:] == cold_out.splitlines()[1:]
    assert not _loaded(warm, "scipy")
    assert "repro.core.engine" not in warm
    assert "repro.core.metrics" not in warm


def test_warm_run_loads_exactly_the_allow_list(run_pair):
    _, (warm_out, warm) = run_pair
    assert warm_out.startswith("cache hit")
    assert _ours(warm) == WARM_RUN_MODULES


def test_warm_run_loads_no_numpy(run_pair):
    (cold_out, cold), (warm_out, warm) = run_pair
    assert "numpy" in cold
    assert warm_out.startswith("cache hit")
    assert not _loaded(warm, "numpy")


def test_warm_suite_run_loads_no_numpy(env, tmp_path):
    """A ``suite:`` recipe reads the suite's default scale, which must
    not load the generators."""
    argv = ("run", "--workload", "bfs", "--graph", "suite:road",
            "--scale", "0.0009765625")
    cold_out, _ = _repro(env, tmp_path, *argv)
    warm_out, warm = _repro(env, tmp_path, *argv)
    assert cold_out.startswith("cache miss")
    assert warm_out.startswith("cache hit")
    assert warm_out.splitlines()[1:] == cold_out.splitlines()[1:]
    assert not _loaded(warm, "numpy")
    assert _ours(warm) == WARM_RUN_MODULES | {"repro.graph.suites"}


def test_cold_run_loads_no_supervisor_and_no_verb_family(run_pair):
    (cold_out, cold), _ = run_pair
    assert cold_out.startswith("cache miss")
    for module in ("repro.runner.sweep", "repro.runner.monitor",
                   "repro.commands"):
        assert not _loaded(cold, module), module
    assert len(_ours(cold)) <= COLD_RUN_BUDGET, sorted(_ours(cold))


@pytest.mark.parametrize("package", PACKAGES)
def test_package_import_loads_only_the_package(env, package):
    proc = _python(
        f"import json, sys, {package}; print(json.dumps(sorted(sys.modules)))",
        env,
    )
    loaded = _ours(json.loads(proc.stdout))
    assert loaded <= {"repro", "repro._lazy", package}


def test_obs_config_leaves_the_recorder_unloaded(env):
    """An ObsConfig is plain data in run specs and cache keys; only
    make_recorder needs the recorder."""
    code = textwrap.dedent(
        """
        import sys
        from repro.obs.config import ObsConfig, make_recorder

        config = ObsConfig(timeline=True)
        before = "repro.obs.recorder" in sys.modules
        make_recorder(config)
        print(before, "repro.obs.recorder" in sys.modules)
        """
    )
    assert _python(code, env).stdout.split() == ["False", "True"]


def test_graph_build_and_job_lowering_leave_the_cli_unloaded(env):
    code = textwrap.dedent(
        """
        import sys
        from repro.runner.spec import GraphSpec
        from repro.service.store import JobSpec

        GraphSpec("rmat:6:4", seed=1).build_uncached()
        for system in ("nova", "polygraph", "ligra"):
            JobSpec.from_dict({"workload": "bfs", "graph": "rmat:6:4",
                               "system": system, "onchip": "2KiB"}
                              ).to_run_spec()
        print(sorted(m for m in sys.modules
                     if m == "repro.cli" or m.startswith("repro.commands")))
        """
    )
    assert _python(code, env).stdout.strip() == "[]"


def _handlers(parser: argparse.ArgumentParser, path=()):
    """``(verb path, handler)`` for every leaf verb of ``parser``."""
    subparsers = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    if not subparsers:
        yield " ".join(path), parser.get_default("handler")
        return
    for name, child in subparsers[0].choices.items():
        yield from _handlers(child, path + (name,))


def test_every_parser_handler_resolves():
    """``--help`` imports no handler, so a misspelled handler string
    would only fail when its verb runs."""
    handlers = dict(_handlers(make_parser()))
    assert len(handlers) == 24
    for verb, handler in handlers.items():
        assert handler is not None, verb
        assert callable(_resolve_handler(handler)), verb


@pytest.mark.parametrize("workload", ["sssp", "cc"])
def test_verify_still_loads_scipy(env, tmp_path, workload):
    pytest.importorskip("scipy")
    out, modules = _repro(
        env, tmp_path,
        "run", "--workload", workload, "--graph", "rmat:9:8", "--verify",
    )
    assert "verified against the sequential oracle" in out
    assert "scipy.sparse.csgraph" in modules


@pytest.mark.parametrize(
    "package", [p for p in PACKAGES if p != "repro.commands"]
)
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
    """A multi-worker runner loads the executor and every workload
    before it forks, so no child imports anything inside an attempt."""
    code = textwrap.dedent(
        """
        import dataclasses, json, os, sys

        import repro.runner
        from repro.runner import GraphSpec, RunSpec, SweepRunner, register_system
        from repro.runner.execute import execute_spec
        from repro.workloads import _REGISTRY

        out_dir, parent = sys.argv[1], os.getpid()
        assert "repro.core.engine" not in sys.modules

        def probe(spec):
            before = set(sys.modules)
            result = execute_spec(dataclasses.replace(spec, system="nova"))
            with open(os.path.join(out_dir, f"{os.getpid()}-{spec.workload}"),
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
            RunSpec(workload, GraphSpec.for_workload("rmat:8:4", workload, seed=1),
                    system="probe",
                    source=None if workload in ("cc", "pr", "pr-delta") else 1)
            for workload in _REGISTRY
        ]
        SweepRunner(workers=2, use_cache=False).run(specs)
        print(len(specs))
        """
    )
    out_dir = tmp_path / "probes"
    out_dir.mkdir()
    cells = int(_python(code, env, str(out_dir)).stdout)
    records = []
    for name in sorted(os.listdir(out_dir)):
        with open(out_dir / name, encoding="utf-8") as f:
            records.append(json.load(f))
    assert len(records) == cells == 6
    for record in records:
        assert record == {"forked": True, "engine_at_start": True,
                          "imported": []}
