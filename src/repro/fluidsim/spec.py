"""The per-flow input of both fluid substrates.

:class:`FluidSpec` lives apart from the scalar loop
(:mod:`repro.fluidsim.core`) so that a vectorized batch
(:mod:`repro.fluidsim.vec`), which takes the same specs, does not load
the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["FluidSpec"]


@dataclass
class FluidSpec:
    """Configuration for one fluid flow.

    Attributes:
        cc: Fluid congestion-control name (see
            :func:`repro.fluidsim.flows.make_fluid_flow`).
        rtt: Base RTT in seconds; None uses the link config's RTT.
        start_time: When the flow starts, in seconds.
        stop_time: Optional absolute time at which the flow stops sending
            (for on/off or churning workloads, §5's future-work regime).
        size_bytes: Optional transfer size; the flow finishes once it has
            delivered this many bytes (short-flow workloads).
        cc_kwargs: Extra keyword arguments for the fluid flow class.
    """

    cc: str
    rtt: Optional[float] = None
    start_time: float = 0.0
    stop_time: Optional[float] = None
    size_bytes: Optional[float] = None
    cc_kwargs: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.stop_time is not None and self.stop_time <= self.start_time:
            raise ValueError("stop_time must be after start_time")
        if self.size_bytes is not None and self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
