"""Baseline systems the paper compares NOVA against.

- :mod:`repro.baselines.polygraph` -- PolyGraph [13] in its most
  optimized S_s / A_c / T_w variant: Gemini-style temporal slices,
  on-chip replica coalescing, work-aware slice scheduling, with the
  three switching-cost components of Section II-C charged explicitly.
- :mod:`repro.baselines.ligra` -- the Ligra software framework [41]
  as an analytic cost model over real frontier traces (Fig 4's software
  reference).
- :mod:`repro.baselines.dalorex` -- Dalorex [34] resource model
  (on-chip-only storage; Table IV).

The names below resolve on first access (see :mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.baselines.slicing": ("TemporalSlicing",),
    "repro.baselines.polygraph": ("PolyGraphConfig", "PolyGraphSystem"),
    "repro.baselines.ligra": ("LigraConfig", "LigraModel"),
    "repro.baselines.dalorex": ("dalorex_requirements",),
})

__all__ = [
    "TemporalSlicing",
    "PolyGraphConfig",
    "PolyGraphSystem",
    "LigraConfig",
    "LigraModel",
    "dalorex_requirements",
]
