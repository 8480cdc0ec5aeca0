"""What one substrate run returns: per-flow and per-link outcomes.

The packet simulator (:func:`repro.sim.network.run_dumbbell`) and both
fluid substrates (:func:`repro.fluidsim.core.run_fluid`,
:func:`repro.fluidsim.vec.run_fluid_vec_batch`) return the same
:class:`SimulationResult`.  It lives here, beside the scenario schema
and importing neither substrate, so a request that runs on one
substrate never loads the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass
class FlowResult:
    """Measured outcome for one flow over the measurement interval."""

    flow_id: int
    cc: str
    throughput: float  # bytes/second
    mean_rtt: Optional[float]
    min_rtt: Optional[float]
    loss_rate: float
    delivered_bytes: int
    retransmits: int = 0

    @property
    def throughput_mbps(self) -> float:
        """Throughput in Mbps, the unit used in the paper's figures."""
        return self.throughput * 8.0 / 1e6


@dataclass
class SimulationResult:
    """Outcome of one dumbbell run."""

    flows: List[FlowResult]
    duration: float
    warmup: float
    mean_queue_bytes: float
    mean_queuing_delay: float
    drop_rate: float
    events_processed: int = 0

    def by_cc(self, cc: str) -> List[FlowResult]:
        """All flow results running algorithm ``cc``."""
        return [f for f in self.flows if f.cc == cc.lower()]

    def aggregate_throughput(self, cc: Optional[str] = None) -> float:
        """Total throughput (bytes/s), optionally filtered by CCA."""
        flows = self.by_cc(cc) if cc else self.flows
        return sum(f.throughput for f in flows)
