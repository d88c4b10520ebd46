"""Analytical models backing the paper's static tables.

- :mod:`repro.analysis.resources` -- tracker capacity (Equations 1-2 and
  the WDC12 example of Section III-D) and the terascale resource
  requirements of Table IV.
- :mod:`repro.analysis.fpga` -- the per-unit FPGA resource/power
  estimates of Table V.
- :mod:`repro.analysis.tradeoffs` -- the spilling-method trade-off
  comparison of Table I.

The names below resolve on first access (see :mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.resources": (
        "WDC12",
        "GraphScale",
        "tracker_requirements",
        "bitvector_bits",
        "active_block_bits",
        "terascale_requirements",
    ),
    "repro.analysis.fpga": ("FPGA_UNITS", "U280", "gpn_fpga_report"),
    "repro.analysis.tradeoffs": ("SpillingMethod", "spilling_comparison"),
    "repro.analysis.preprocessing": (
        "AmortizationReport",
        "amortization",
        "preprocessing_seconds",
    ),
    "repro.analysis.energy": (
        "EnergyBreakdown",
        "EnergyReport",
        "estimate_energy",
        "gpn_pipeline_watts",
    ),
})

__all__ = [
    "WDC12",
    "GraphScale",
    "tracker_requirements",
    "bitvector_bits",
    "active_block_bits",
    "terascale_requirements",
    "FPGA_UNITS",
    "U280",
    "gpn_fpga_report",
    "SpillingMethod",
    "spilling_comparison",
    "AmortizationReport",
    "amortization",
    "preprocessing_seconds",
    "EnergyBreakdown",
    "EnergyReport",
    "estimate_energy",
    "gpn_pipeline_watts",
]
