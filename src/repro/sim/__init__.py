"""Simulation kernel: statistics, the quantum engine, and configurations.

The paper evaluates NOVA with cycle-level gem5 models.  This package
provides the Python-scale equivalent (see DESIGN.md section 4): execution
advances in variable-duration quanta, each sized so that the slowest
shared resource (an HBM channel, the DDR pool, a NoC link, a functional
unit pool) exactly fits the work the units issued.  Latency is modelled
as a per-quantum floor plus one-quantum message delivery delay.

The names below resolve on first access (see :mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.stats": ("StatGroup",),
    "repro.sim.engine": ("QuantumClock", "ResourcePool"),
    "repro.sim.event": ("EventQueue", "Event"),
    "repro.sim.config": ("NovaConfig", "paper_config", "scaled_config"),
})

__all__ = [
    "StatGroup",
    "QuantumClock",
    "ResourcePool",
    "EventQueue",
    "Event",
    "NovaConfig",
    "paper_config",
    "scaled_config",
]
