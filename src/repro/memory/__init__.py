"""Off-chip and on-chip memory models.

This package provides the timing substrate NOVA's evaluation rests on:

- :mod:`repro.memory.spec` -- declarative descriptions of memory
  technologies (HBM2, DDR4) with capacity, peak bandwidth, access-pattern
  efficiency, and latency.
- :mod:`repro.memory.channel` -- per-quantum bandwidth accounting used by
  the simulator to convert byte traffic into time and to attribute traffic
  to useful/wasteful categories (Fig 10 of the paper).
- :mod:`repro.memory.cache` -- an exact, vectorized direct-mapped
  write-back cache (the per-PE vertex cache of Section III-B).

The names below resolve on first access (see :mod:`repro._lazy`), so
the configs that name a memory technology do not load the cache model.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.memory.spec": (
        "MemorySpec",
        "hbm2_channel",
        "hbm2_stack",
        "ddr4_channel",
        "ddr4_pool",
    ),
    "repro.memory.channel": ("BandwidthChannel",),
    "repro.memory.cache": ("CacheArray", "DirectMappedCache"),
})

__all__ = [
    "MemorySpec",
    "hbm2_channel",
    "hbm2_stack",
    "ddr4_channel",
    "ddr4_pool",
    "BandwidthChannel",
    "CacheArray",
    "DirectMappedCache",
]
