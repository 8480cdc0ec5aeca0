"""Fluid-flow bottleneck simulator.

A fast, tick-based companion to :mod:`repro.sim` used for the paper's
large sweeps (50-flow Nash-equilibrium searches, distribution evolutions).
See :mod:`repro.fluidsim.core` for the model and its relation to §2.4's
synchronization bounds, and :mod:`repro.fluidsim.vec` for the
vectorized (numpy array-of-flows, multi-point batched) substrate that
reproduces the scalar trajectories bit for bit.

The names below are re-exported lazily: importing the vectorized
substrate does not load the scalar per-tick adapters, nor the reverse.
"""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    "repro.fluidsim.core": ("FluidSimulation", "TickContext", "run_fluid"),
    "repro.fluidsim.spec": ("FluidSpec",),
    "repro.scenario.spec": ("LOSS_MODES",),
    "repro.fluidsim.vec": (
        "BatchPoint",
        "VecFluidSim",
        "run_fluid_vec",
        "run_fluid_vec_batch",
    ),
    "repro.fluidsim.flows": (
        "FluidBBR",
        "FluidBBR2",
        "FluidCopa",
        "FluidCubic",
        "FluidFlow",
        "FluidReno",
        "FluidVegas",
        "FluidVivace",
        "available_fluid_algorithms",
        "make_fluid_flow",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
