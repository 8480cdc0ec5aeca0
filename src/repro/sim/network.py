"""Dumbbell topology builder: N flows through one drop-tail bottleneck.

This reproduces the paper's testbed (Figure 2): every flow crosses the same
bottleneck link and drop-tail buffer; each flow's base RTT is realized by
fixed per-flow propagation delays on the data and ACK paths, so flows may
have distinct base RTTs (as in the paper's §4.5 multi-RTT experiments).

A forwarded packet costs one event: its ACK's arrival at the sender.
The bottleneck decides the packet's fate and departure when it arrives
(:mod:`repro.sim.link`), and everything after the bottleneck is a fixed
delay on a path that neither drops, queues nor reorders, so
:class:`FlowPath` computes the remaining timestamps from the departure
instead of walking the packet through them event by event.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.core import Checker
    from repro.obs.bus import Telemetry
    from repro.sim.aqm import CoDelConfig, REDConfig

from repro.cc.base import make_controller
from repro.sim.endpoints import Sender
from repro.sim.engine import EventLoop
from repro.sim.link import Link
from repro.sim.packet import Packet
from repro.sim.stats import FlowStats
from repro.util.config import LinkConfig

#: Events a run may process per packet its bottleneck can carry before
#: it is stopped as a runaway
#: (:class:`~repro.sim.engine.EventBudgetExceeded`).  A healthy
#: run needs one to three: the ACK, pacing and RTO timers.
EVENTS_PER_PACKET_BUDGET = 32


@dataclass
class FlowSpec:
    """Configuration for one flow in the dumbbell.

    Attributes:
        cc: Registered congestion-control algorithm name (e.g. ``"cubic"``).
        rtt: Base RTT in seconds; None means "use the link config's RTT".
        start_time: When the flow begins sending, in seconds.
        max_bytes: Optional transfer size — the flow stops sending once
            it has transmitted this much (short-flow workloads).
        cc_kwargs: Extra keyword arguments for the controller constructor.
    """

    cc: str
    rtt: Optional[float] = None
    start_time: float = 0.0
    max_bytes: Optional[int] = None
    cc_kwargs: Dict[str, object] = field(default_factory=dict)


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

    def mean_throughput(self, cc: Optional[str] = None) -> float:
        """Mean per-flow throughput (bytes/s), optionally filtered by CCA."""
        flows = self.by_cc(cc) if cc else self.flows
        if not flows:
            return 0.0
        return sum(f.throughput for f in flows) / len(flows)

    def aggregate_throughput(self, cc: Optional[str] = None) -> float:
        """Total throughput (bytes/s), optionally filtered by CCA."""
        flows = self.by_cc(cc) if cc else self.flows
        return sum(f.throughput for f in flows)


class FlowPath:
    """One flow's path beyond the bottleneck: data propagation, the
    receiver, and the ACK's way back, as a single scheduled event.

    A packet leaving the bottleneck at ``t`` reaches the receiver at
    ``t + rtt/2`` and its ACK reaches the sender at ``(t + rtt/2) +
    rtt/2`` (in that association: the timestamps a hop-by-hop walk
    would produce).  The bottleneck knows ``t`` when the packet arrives
    there, so :meth:`forward` stamps the packet's ``recv_time`` and
    schedules only ``on_ack``, with the packet as its own ACK.  The
    receiver's delivery accounting is binned at *arrival* time, which
    no event marks; packets whose delivery is not yet on record wait in
    a FIFO that is settled, by arrival time, on every later packet and
    by :meth:`settle` when a run ends — so packets that reached the
    receiver but whose ACK is still under way count exactly as if the
    receiver had fired, and packets still queued at the end do not.

    Args:
        loop: The event loop driving the simulation.
        rtt: The flow's base round-trip propagation delay in seconds.
        stats: The flow's recorder (receiver-side deliveries).
        on_ack: The sender's ACK handler.
    """

    __slots__ = ("loop", "half_rtt", "stats", "on_ack", "_unrecorded")

    def __init__(
        self,
        loop: EventLoop,
        rtt: float,
        stats: FlowStats,
        on_ack: Callable[[Packet], None],
    ) -> None:
        if rtt <= 0:
            raise ValueError(
                f"flow {stats.flow_id}: rtt must be positive, got {rtt}"
            )
        self.loop = loop
        self.half_rtt = rtt / 2.0
        self.stats = stats
        self.on_ack = on_ack
        self._unrecorded: Deque[Packet] = deque()

    def forward(self, packet: Packet, departure: float) -> None:
        """Carry a packet that leaves the bottleneck at ``departure`` to
        its receiver and its ACK back to the sender."""
        loop = self.loop
        self.settle(loop.now)
        half_rtt = self.half_rtt
        arrival = departure + half_rtt
        packet.recv_time = arrival
        self._unrecorded.append(packet)
        # The ACK stems from the departure: among simultaneous events it
        # runs where an event scheduled at the departure would.
        loop.call_at_from(arrival + half_rtt, departure, self.on_ack, packet)

    def settle(self, now: float) -> None:
        """Record every delivery that reached the receiver by ``now``."""
        unrecorded = self._unrecorded
        while unrecorded and unrecorded[0].recv_time <= now:
            packet = unrecorded.popleft()
            self.stats.record_delivery(packet.recv_time, packet.size)


class DumbbellNetwork:
    """N senders → shared drop-tail bottleneck → N receivers.

    Args:
        link: Bottleneck configuration (capacity, base RTT, buffer depth).
        flows: One :class:`FlowSpec` per flow.
        mss: Segment size in bytes for all flows.
        red: Optional :class:`repro.sim.aqm.REDConfig` to run the
            bottleneck with RED instead of pure drop-tail (the paper's
            §5 "Taming the Zoo" direction).
        codel: Optional :class:`repro.sim.aqm.CoDelConfig` for CoDel at
            the bottleneck.  Mutually exclusive with ``red``.
            When neither is given, the AQM (and its ECN flag) is derived
            from ``link.aqm`` — the canonical scenario-schema path; the
            explicit arguments exist for direct experimentation and
            override the spec.  A non-constant ``link.capacity_trace``
            becomes the bottleneck's capacity steps.
        obs: Optional telemetry bus, threaded through the event loop,
            bottleneck link, senders, and congestion controllers.  When
            the bus has a ``sample_interval``, a
            :class:`repro.sim.trace.CwndTracer` is attached that streams
            periodic controller samples onto the bus.
        check: Optional :class:`repro.check.Checker`, threaded through
            the same components as ``obs``.  Defaults to the
            process-wide checker (installed by ``--check`` or
            ``REPRO_CHECK=1``), which is usually None, i.e. disabled.
    """

    def __init__(
        self,
        link: LinkConfig,
        flows: Sequence[FlowSpec],
        mss: Optional[int] = None,
        red: Optional["REDConfig"] = None,
        codel: Optional["CoDelConfig"] = None,
        obs: Optional["Telemetry"] = None,
        check: Optional["Checker"] = None,
    ) -> None:
        from repro.check import resolve as resolve_check
        from repro.scenario import CoDelSpec, REDSpec
        from repro.sim.aqm import RED, CoDel, CoDelConfig, REDConfig

        if not flows:
            raise ValueError("at least one flow is required")
        if red is not None and codel is not None:
            raise ValueError("choose at most one AQM (red or codel)")
        check = resolve_check(check)
        self.link_config = link
        self.flow_specs = list(flows)
        self.mss = mss if mss is not None else link.mss
        self.obs = obs
        self.check = check
        self.loop = EventLoop(obs=obs, check=check)

        # Derive the AQM from the scenario spec unless explicit configs
        # override it (the legacy direct-experimentation path).
        ecn = False
        spec_aqm = getattr(link, "aqm", None)
        if red is None and codel is None and spec_aqm is not None:
            if isinstance(spec_aqm, REDSpec):
                red = REDConfig(
                    min_threshold=spec_aqm.min_frac * link.buffer_bytes,
                    max_threshold=spec_aqm.max_frac * link.buffer_bytes,
                    max_p=spec_aqm.max_p,
                    weight=spec_aqm.weight,
                    seed=spec_aqm.seed,
                )
                ecn = spec_aqm.ecn
            elif isinstance(spec_aqm, CoDelSpec):
                codel = CoDelConfig(
                    target=spec_aqm.target, interval=spec_aqm.interval
                )
                ecn = spec_aqm.ecn

        aqm = None
        if red is not None:
            aqm = RED(red)
        elif codel is not None:
            aqm = CoDel(codel)
        trace = getattr(link, "capacity_trace", None)
        steps: List[Tuple[float, float]] = []
        capacity = link.capacity
        if trace is not None and not trace.is_constant:
            capacity = link.capacity * trace.scale_at(0.0)
            steps = [
                (when, link.capacity * scale)
                for when, scale in trace.change_events()
            ]
        # The fastest the bottleneck ever serializes: the event budget's
        # packet rate.
        self._peak_capacity = max([capacity] + [c for _, c in steps])
        # Filled with each flow's FlowPath.forward, indexed by flow id.
        forward: List[Callable[[Packet, float], None]] = []
        self.bottleneck = Link(
            loop=self.loop,
            capacity=capacity,
            buffer_bytes=link.buffer_bytes,
            deliver=forward,
            aqm=aqm,
            ecn=ecn,
            capacity_steps=steps,
            obs=obs,
            check=check,
        )

        self.senders: List[Sender] = []
        self.stats: List[FlowStats] = []
        self._paths: List[FlowPath] = []

        for flow_id, spec in enumerate(self.flow_specs):
            rtt = spec.rtt if spec.rtt is not None else link.rtt
            cc = make_controller(spec.cc, mss=self.mss, **spec.cc_kwargs)
            cc.obs = obs
            cc.check = check
            cc.flow_id = flow_id
            stats = FlowStats(flow_id)
            sender = Sender(
                loop=self.loop,
                flow_id=flow_id,
                cc=cc,
                transmit=self.bottleneck.enqueue,
                stats=stats,
                start_time=spec.start_time,
                max_bytes=spec.max_bytes,
                obs=obs,
                check=check,
            )
            path = FlowPath(self.loop, rtt, stats, sender.on_ack)
            forward.append(path.forward)
            self._paths.append(path)
            self.senders.append(sender)
            self.stats.append(stats)

        if obs is not None and obs.sample_interval is not None:
            from repro.sim.trace import CwndTracer

            self.tracer: Optional[CwndTracer] = CwndTracer(
                self, obs.sample_interval, obs=obs
            )
        else:
            self.tracer = None

    def event_budget(self, duration: float) -> int:
        """The most events a ``duration``-second run may process:
        :data:`EVENTS_PER_PACKET_BUDGET` per packet the bottleneck can
        carry in that time, and per flow."""
        packets = self._peak_capacity * duration / self.mss
        return int(
            EVENTS_PER_PACKET_BUDGET * (packets + len(self.flow_specs))
        )

    def run(self, duration: float, warmup: float = 0.0) -> SimulationResult:
        """Run for ``duration`` seconds; measure over ``[warmup, duration]``.

        The paper's experiments average over the full 2-minute flow
        lifetime, which corresponds to ``warmup=0``; passing a positive
        warm-up excludes the startup transient instead.  A run that needs
        more than :meth:`event_budget` events raises
        :class:`~repro.sim.engine.EventBudgetExceeded`.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if not 0 <= warmup < duration:
            raise ValueError(
                f"warmup must lie in [0, duration), got {warmup}"
            )
        self.loop.run_until(
            duration, max_events=self.event_budget(duration)
        )
        self.bottleneck.settle(duration)
        for path in self._paths:
            path.settle(self.loop.now)
        flows = []
        for spec, stats in zip(self.flow_specs, self.stats):
            flows.append(
                FlowResult(
                    flow_id=stats.flow_id,
                    cc=spec.cc.lower(),
                    throughput=stats.throughput(warmup, duration),
                    mean_rtt=stats.mean_rtt,
                    min_rtt=stats.min_rtt,
                    loss_rate=stats.loss_rate,
                    delivered_bytes=stats.delivered_bytes,
                    retransmits=stats.retransmits,
                )
            )
        link_stats = self.bottleneck.stats
        mean_queue = link_stats.mean_occupancy(duration)
        if self.obs is not None:
            self.obs.count(
                "link.forwarded_packets", link_stats.forwarded_packets
            )
            self.obs.gauge("link.mean_queue_bytes", mean_queue)
        return SimulationResult(
            flows=flows,
            duration=duration,
            warmup=warmup,
            mean_queue_bytes=mean_queue,
            mean_queuing_delay=mean_queue / self.link_config.capacity,
            drop_rate=link_stats.drop_rate,
            events_processed=self.loop.events_processed,
        )


def run_dumbbell(
    link: LinkConfig,
    flows: Sequence[FlowSpec],
    duration: float,
    warmup: float = 0.0,
    mss: Optional[int] = None,
    red: Optional["REDConfig"] = None,
    codel: Optional["CoDelConfig"] = None,
    obs: Optional["Telemetry"] = None,
    check: Optional["Checker"] = None,
) -> SimulationResult:
    """Convenience one-shot: build a dumbbell, run it, return the result.

    ``obs`` defaults to the process-wide telemetry bus (usually None,
    i.e. disabled); pass one explicitly to instrument a single run.
    ``check`` likewise defaults to the process-wide invariant checker
    (see :mod:`repro.check`).
    """
    from repro.obs.bus import resolve

    return DumbbellNetwork(
        link,
        flows,
        mss=mss,
        red=red,
        codel=codel,
        obs=resolve(obs),
        check=check,
    ).run(duration, warmup)
