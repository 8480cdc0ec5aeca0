"""Packet-level discrete-event network simulator.

This subpackage is the substrate replacing the paper's emulated-link
testbed: a deterministic event loop (:mod:`repro.sim.engine`), a drop-tail
bottleneck link that decides each packet as it arrives
(:mod:`repro.sim.link`), bulk senders with Linux-style
delivery-rate sampling (:mod:`repro.sim.endpoints`), and a dumbbell
topology builder that also owns each flow's fixed post-bottleneck path
and receiver (:mod:`repro.sim.network`).
"""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    "repro.sim.aqm": ("RED", "CoDel"),
    "repro.sim.engine": ("EventBudgetExceeded", "EventLoop"),
    "repro.sim.link": ("Link", "LinkStats"),
    "repro.sim.network": (
        "DumbbellNetwork",
        "FlowPath",
        "FlowResult",
        "FlowSpec",
        "SimulationResult",
        "run_dumbbell",
    ),
    "repro.sim.packet": ("LossEvent", "Packet", "RateSample"),
    "repro.sim.stats": ("FlowStats",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
