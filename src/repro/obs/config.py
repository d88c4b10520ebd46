"""Declarative observability configuration.

:class:`ObsConfig` is the *recipe* for a recorder -- plain frozen data,
so it can ride inside a :class:`~repro.runner.spec.RunSpec`, be pickled
to sweep workers, and be digested into run-cache keys (a cached
un-instrumented run must never satisfy a profiled request; see
:func:`repro.runner.cache.spec_key`).  :func:`make_recorder` turns the
recipe into the matching stateful recorder, one per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.obs.recorder import MetricsRecorder


@dataclass(frozen=True)
class ObsConfig:
    """What to record during a run.

    ``timeline`` enables the per-quantum :class:`TimelineRecorder`
    (ring of ``timeline_capacity`` quanta, exported on the run's
    ``RunResult.timeline``).  ``phases`` enables the wall-clock
    :class:`PhaseProfiler`, sampling one quantum in every
    ``phase_sample_every``.  The all-default config records nothing and
    resolves to the zero-cost null recorder.
    """

    timeline: bool = False
    timeline_capacity: int = 4096
    phases: bool = False
    phase_sample_every: int = 16

    def __post_init__(self) -> None:
        if self.timeline_capacity <= 0:
            raise ConfigError("timeline_capacity must be positive")
        if self.phase_sample_every <= 0:
            raise ConfigError("phase_sample_every must be positive")

    @property
    def active(self) -> bool:
        """True if this config asks for any instrumentation at all."""
        return self.timeline or self.phases


def make_recorder(config: Optional[ObsConfig]) -> Optional[MetricsRecorder]:
    """Build the recorder an :class:`ObsConfig` describes.

    Returns ``None`` for ``None`` or an all-disabled config -- callers
    pass that straight to the engine, which falls back to the shared
    null recorder.
    """
    if config is None or not config.active:
        return None
    from repro.obs.recorder import PhaseProfiler, TimelineRecorder

    profiler = (
        PhaseProfiler(config.phase_sample_every) if config.phases else None
    )
    if config.timeline:
        return TimelineRecorder(config.timeline_capacity, profiler=profiler)
    return profiler
