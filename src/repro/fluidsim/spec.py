"""The per-flow input of both fluid substrates.

:class:`FluidSpec` lives apart from the scalar loop
(:mod:`repro.fluidsim.core`) so that a vectorized batch
(:mod:`repro.fluidsim.vec`), which takes the same specs, does not load
the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["FluidSpec"]


@dataclass
class FluidSpec:
    """Configuration for one fluid flow.

    Attributes:
        cc: Fluid congestion-control name (see
            :func:`repro.fluidsim.flows.make_fluid_flow`).
        rtt: Base RTT in seconds; None uses the link config's RTT.
        start_time: When the flow starts, in seconds; it then sends
            until the run ends.
    """

    cc: str
    rtt: Optional[float] = None
    start_time: float = 0.0
