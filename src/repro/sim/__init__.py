"""Deterministic discrete-event simulation kernel.

This is the substrate that stands in for the paper's physical testbed: a
classic event-queue simulator with a monotonic virtual clock, deterministic
tie-breaking, and a seeded RNG.  All SDVM timing benchmarks (Table 1 and the
ablations in ``benchmarks/``) run on this kernel, so their results are exactly
reproducible across machines.
"""

from repro.sim.engine import Simulator, Event, SimulationError

__all__ = ["Simulator", "Event", "SimulationError"]
