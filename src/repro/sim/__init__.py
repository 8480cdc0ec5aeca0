"""Packet-level discrete-event network simulator.

This subpackage is the substrate replacing the paper's emulated-link
testbed: a deterministic event loop (:mod:`repro.sim.engine`), a drop-tail
bottleneck link that decides each packet as it arrives
(:mod:`repro.sim.link`), bulk senders with Linux-style
delivery-rate sampling (:mod:`repro.sim.endpoints`), and a dumbbell
topology builder that also owns each flow's fixed post-bottleneck path
and receiver (:mod:`repro.sim.network`).
"""

from repro.sim.aqm import RED, CoDel
from repro.sim.engine import EventBudgetExceeded, EventLoop
from repro.sim.link import Link, LinkStats
from repro.sim.network import (
    DumbbellNetwork,
    FlowPath,
    FlowResult,
    FlowSpec,
    SimulationResult,
    run_dumbbell,
)
from repro.sim.packet import LossEvent, Packet, RateSample
from repro.sim.stats import FlowStats
from repro.sim.trace import CwndTracer, TraceSample

__all__ = [
    "RED",
    "CoDel",
    "CwndTracer",
    "TraceSample",
    "EventBudgetExceeded",
    "EventLoop",
    "Link",
    "LinkStats",
    "DumbbellNetwork",
    "FlowPath",
    "FlowResult",
    "FlowSpec",
    "SimulationResult",
    "run_dumbbell",
    "LossEvent",
    "Packet",
    "RateSample",
    "FlowStats",
]
