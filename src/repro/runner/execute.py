"""Run one :class:`~repro.runner.spec.RunSpec` in this process.

:func:`execute_spec` looks the spec's system up in a registry of
executors (``nova``, ``polygraph``, ``ligra``; :func:`register_system`
adds more).  ``repro run`` calls it directly on a cache miss, and each
forked child of :class:`~repro.runner.sweep.SweepRunner` calls it for
every cell, so a miss never loads the sweep supervisor.
"""

from __future__ import annotations

import importlib
import os
from typing import TYPE_CHECKING, Callable, Dict, Tuple

from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.core.metrics import RunResult
    from repro.runner.spec import RunSpec

#: system name -> executor(spec) -> RunResult.  Forked children inherit
#: registrations made in the parent before the round starts, so tests and
#: extensions can plug in executors without touching this module.
_SYSTEM_EXECUTORS: Dict[str, Callable[[RunSpec], RunResult]] = {}


def register_system(name: str, executor: Callable[[RunSpec], RunResult]) -> None:
    """Register (or replace) the executor behind a ``RunSpec.system``."""
    _SYSTEM_EXECUTORS[name] = executor


def _run_nova(spec: RunSpec) -> RunResult:
    from repro.core.system import NovaSystem
    from repro.obs.config import make_recorder
    from repro.sim.config import scaled_config

    config = spec.config if spec.config is not None else scaled_config()
    system = NovaSystem(
        config,
        spec.resolve_graph(),
        placement=spec.placement,
        seed=spec.placement_seed,
    )
    return system.run(
        spec.workload,
        source=spec.source,
        max_quanta=spec.max_quanta,
        recorder=make_recorder(spec.obs),
        **spec.workload_kwargs,
    )


def _run_polygraph(spec: RunSpec) -> RunResult:
    from repro.baselines.polygraph import PolyGraphConfig, PolyGraphSystem

    config = spec.config if spec.config is not None else PolyGraphConfig()
    return PolyGraphSystem(config, spec.resolve_graph()).run(
        spec.workload, source=spec.source, **spec.workload_kwargs
    )


def _run_ligra(spec: RunSpec) -> RunResult:
    from repro.baselines.ligra import LigraConfig, LigraModel

    config = spec.config if spec.config is not None else LigraConfig()
    return LigraModel(config, spec.resolve_graph()).run(
        spec.workload, source=spec.source, **spec.workload_kwargs
    )


register_system("nova", _run_nova)
register_system("polygraph", _run_polygraph)
register_system("ligra", _run_ligra)

#: Modules the built-in executors import on their first run.  numpy
#: itself imports ``numpy.random`` (random placement) and ``numpy.ma``
#: (``np.unique``, in locality placement) on first use.
_EXECUTOR_MODULES: Dict[str, Tuple[str, ...]] = {
    "nova": ("numpy.ma", "numpy.random", "repro.core.system",
             "repro.obs.config"),
    "polygraph": ("repro.baselines.polygraph",),
    "ligra": ("repro.baselines.ligra",),
}


def _preload_executors(systems) -> None:
    """Import the named systems' executor modules, and every workload
    module, in this process.

    Executors import their engines on first use, and every executor
    runs its workload through ``get_workload``, which imports the one
    workload module it returns.  A process about to fork children must
    load them first: forked children inherit the parent's modules,
    whereas an import left to the children would be paid by every one
    of them, inside a timed attempt.
    """
    import repro.workloads as workloads

    for system in systems:
        for module in _EXECUTOR_MODULES.get(system, ()):
            importlib.import_module(module)
    for cls in workloads._REGISTRY.values():
        getattr(workloads, cls)


#: glibc ``mallopt`` parameters (``<malloc.h>``) and the values pinned:
#: the mmap threshold at glibc's own 64-bit dynamic ceiling, and the
#: trim threshold at twice that, where the dynamic rule would put it.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_PINNED_MMAP_THRESHOLD = 32 << 20
_PINNED_TRIM_THRESHOLD = 64 << 20


def _pin_malloc_thresholds() -> None:
    """Fix glibc malloc's mmap and trim thresholds for this process.

    glibc starts both low (128 KiB) and raises them each time a large
    mmapped block is freed, so a run's allocator state depended on
    which large buffers the process happened to free before it: a run
    whose result arrays are mmapped afresh and unmapped on free pays
    their page faults again on every call.  Forked sweep and service
    children inherit the pin.  A no-op off glibc, and when the user
    tunes malloc through ``MALLOC_*_`` or ``GLIBC_TUNABLES``.
    """
    if "GLIBC_TUNABLES" in os.environ or any(
        name.startswith("MALLOC_") and name.endswith("_")
        for name in os.environ
    ):
        return
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _PINNED_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _PINNED_TRIM_THRESHOLD)


_pin_malloc_thresholds()


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one simulation to completion in this process."""
    if spec.system != "nova" and spec.obs is not None and spec.obs.active:
        raise ConfigError(
            "observability instrumentation is only supported for the "
            f"nova system, not {spec.system!r}"
        )
    executor = _SYSTEM_EXECUTORS.get(spec.system)
    if executor is None:
        raise ConfigError(
            f"unknown system {spec.system!r}; expected one of "
            f"{', '.join(sorted(_SYSTEM_EXECUTORS))}"
        )
    return executor(spec)
