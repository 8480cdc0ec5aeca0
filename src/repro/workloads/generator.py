"""Workload generation: realistic flow populations for the simulators.

§5 of the paper flags "more diverse workloads" — short flows, chunky
video, churn — as the regime its steady-state model does not cover.
This module builds those populations so the repository can probe that
regime (see ``examples/mixed_workloads.py`` and
``benchmarks/test_ext_workloads.py``):

* long-lived bulk flows (the paper's baseline),
* Poisson-arriving short flows with heavy-tailed sizes (web-like),
* periodic on/off flows (chunked video-like).

Generators emit :class:`WorkloadFlow` records that convert to either
simulator's spec type.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.fluidsim.spec import FluidSpec
from repro.sim.network import FlowSpec


@dataclass(frozen=True)
class WorkloadFlow:
    """One flow of a generated workload (simulator-agnostic)."""

    cc: str
    start_time: float
    rtt: Optional[float] = None
    stop_time: Optional[float] = None
    size_bytes: Optional[float] = None

    def to_fluid_spec(self) -> FluidSpec:
        """Convert to a fluid-simulator spec."""
        return FluidSpec(
            cc=self.cc,
            rtt=self.rtt,
            start_time=self.start_time,
            stop_time=self.stop_time,
            size_bytes=self.size_bytes,
        )

    def to_flow_spec(self) -> FlowSpec:
        """Convert to a packet-simulator spec (stop_time unsupported
        there; finite flows use max_bytes)."""
        return FlowSpec(
            cc=self.cc,
            rtt=self.rtt,
            start_time=self.start_time,
            max_bytes=(
                int(self.size_bytes) if self.size_bytes is not None else None
            ),
        )


def long_lived(
    cc: str, count: int, rtt: Optional[float] = None, start: float = 0.0
) -> List[WorkloadFlow]:
    """``count`` bulk flows of one CCA, all starting at ``start``."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return [
        WorkloadFlow(cc=cc, start_time=start, rtt=rtt)
        for _ in range(count)
    ]


def poisson_short_flows(
    cc: str,
    arrival_rate: float,
    duration: float,
    mean_size: float,
    rng: random.Random,
    rtt: Optional[float] = None,
    size_shape: float = 1.5,
) -> List[WorkloadFlow]:
    """Poisson flow arrivals with Pareto-tailed sizes (web traffic).

    Args:
        arrival_rate: Mean arrivals per second.
        duration: Generation horizon in seconds.
        mean_size: Mean transfer size in bytes.
        rng: Seeded random source (determinism across trials).
        size_shape: Pareto shape α (>1); 1.5 gives the heavy tail
            typical of web objects.
    """
    if arrival_rate <= 0:
        raise ValueError(f"arrival_rate must be positive, got {arrival_rate}")
    if mean_size <= 0:
        raise ValueError(f"mean_size must be positive, got {mean_size}")
    if size_shape <= 1:
        raise ValueError(f"size_shape must exceed 1, got {size_shape}")
    # Pareto with mean = x_min · α/(α−1)  →  x_min = mean·(α−1)/α.
    x_min = mean_size * (size_shape - 1.0) / size_shape
    flows = []
    t = 0.0
    while True:
        t += rng.expovariate(arrival_rate)
        if t >= duration:
            break
        size = x_min * (1.0 - rng.random()) ** (-1.0 / size_shape)
        flows.append(
            WorkloadFlow(
                cc=cc, start_time=t, rtt=rtt, size_bytes=size
            )
        )
    return flows


def on_off_flows(
    cc: str,
    count: int,
    on_seconds: float,
    off_seconds: float,
    duration: float,
    rng: random.Random,
    rtt: Optional[float] = None,
) -> List[WorkloadFlow]:
    """Periodic on/off flows (chunked-video-like), one WorkloadFlow per
    ON burst, with per-flow random phase."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if on_seconds <= 0 or off_seconds < 0:
        raise ValueError("on_seconds must be positive, off_seconds >= 0")
    period = on_seconds + off_seconds
    flows = []
    for _ in range(count):
        phase = rng.uniform(0.0, period)
        t = phase
        while t < duration:
            stop = min(t + on_seconds, duration)
            if stop > t:
                flows.append(
                    WorkloadFlow(
                        cc=cc, start_time=t, rtt=rtt, stop_time=stop
                    )
                )
            t += period
    return flows


def to_fluid_specs(flows: Sequence[WorkloadFlow]) -> List[FluidSpec]:
    """Convert a workload to fluid-simulator specs."""
    return [f.to_fluid_spec() for f in flows]


def to_flow_specs(flows: Sequence[WorkloadFlow]) -> List[FlowSpec]:
    """Convert a workload to packet-simulator specs."""
    return [f.to_flow_spec() for f in flows]


def expected_offered_load(
    flows: Sequence[WorkloadFlow], duration: float
) -> float:
    """Mean offered rate (bytes/second) of the *finite* flows.

    Long-lived flows are elastic (they take whatever is left), so only
    sized transfers contribute; useful for sizing background churn as a
    fraction of capacity.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    total = sum(
        f.size_bytes for f in flows if f.size_bytes is not None
    )
    return total / duration
