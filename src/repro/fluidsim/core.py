"""Time-stepped fluid-flow simulator for large bottleneck sweeps.

The paper's Nash-equilibrium experiments need per-distribution mean
throughputs for up to 50 concurrent 2-minute flows, across thousands of
scenario combinations — far beyond what a packet-level simulator can sweep
in reasonable time.  This module models each flow as a *fluid*: a window
(or in-flight target) evolving in discrete time steps, sharing one
bottleneck — drop-tail, or RED / CoDel (:mod:`repro.fluidsim.aqmfluid`),
with a capacity that may follow a trace.

Per tick:

1. every sending flow observes last tick's throughput/RTT and updates its
   in-flight target (its congestion-control law);
2. the shared queue is solved from the in-flight totals (closed form for
   equal RTTs, bisection otherwise);
3. if the queue exceeds the buffer, the excess is dropped in proportion to
   in-flight share, and the loss-based flows the synchronization mode
   picks as victims cut their windows;
4. an AQM, if any, turns the queue into a drop (or ECN-mark) volume,
   shared out and answered the same way;
5. per-flow throughput ``λ_i = inflight_i / (rtt_i + Q/C)`` is integrated.

The *synchronization mode* mirrors §2.4's two boundary cases: ``"sync"``
makes every loss-based flow back off on each overflow (Equation 21's
bound), ``"desync"`` cuts only the largest-queue-share flow (Equation 22),
and ``"proportional"`` — the default — picks victims randomly with
probability proportional to queue share, which lets synchronization *emerge*
like in the paper's testbed.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.fluidsim.aqmfluid import make_fluid_aqm
from repro.fluidsim.spec import FluidSpec
from repro.scenario import LOSS_MODES
from repro.scenario.result import FlowResult, SimulationResult
from repro.scenario.spec import BottleneckSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.core import Checker
    from repro.obs.bus import Telemetry


class TickContext:
    """Observations handed to a fluid flow each tick: ``now``, ``dt`` and
    ``queue_delay`` are the tick's, the rest the flow's own."""

    __slots__ = (
        "now",
        "dt",
        "throughput",
        "rtt_measured",
        "queue_delay",
        "lost_bytes",
    )

    def __init__(self) -> None:
        self.now = 0.0
        self.dt = 0.0
        self.throughput = 0.0
        self.rtt_measured = 0.0
        self.queue_delay = 0.0
        self.lost_bytes = 0.0


class FluidSimulation:
    """One bottleneck shared by fluid flows.

    Args:
        link: Bottleneck configuration.
        flows: Flow specs (see :class:`FluidSpec`).
        dt: Tick length in seconds; defaults to ``min(rtt)/4``.
        loss_mode: One of :data:`LOSS_MODES`.
        seed: RNG seed for the proportional loss mode and start jitter.
        start_jitter: Uniform random extra delay (seconds) added to each
            flow's start time, emulating testbed trial-to-trial variation.
        trace_interval: If set, record per-flow in-flight snapshots (and
            the queue) every ``trace_interval`` seconds into
            :attr:`trace`; per-flow backoff times are always recorded in
            :attr:`loss_events`.  This is how the paper "checked the
            traces" for CUBIC synchronization (§3.2, §5).
        obs: Optional telemetry bus, attached to every fluid flow (so
            BBR phase transitions and backoffs become typed events) and
            fed overflow/drop counters.  When the bus has a
            ``sample_interval`` and ``trace_interval`` is unset, trace
            snapshots run at that interval and are mirrored onto the bus
            as per-flow ``sample`` records.
        check: Optional :class:`repro.check.Checker`, attached to every
            fluid flow (validating BBR phase transitions) and run each
            tick for in-flight bounds and rate conservation (flow rates
            sum to ≤ capacity within tolerance).  Defaults to the
            process-wide checker (``--check`` / ``REPRO_CHECK=1``),
            usually None, i.e. disabled.
    """

    def __init__(
        self,
        link: BottleneckSpec,
        flows: Sequence[FluidSpec],
        dt: Optional[float] = None,
        loss_mode: str = "proportional",
        seed: int = 0,
        start_jitter: float = 0.0,
        trace_interval: Optional[float] = None,
        obs: Optional["Telemetry"] = None,
        check: Optional["Checker"] = None,
    ) -> None:
        from repro.check import resolve as resolve_check
        from repro.fluidsim.flows import FluidFlow, make_fluid_flow

        if not flows:
            raise ValueError("at least one flow is required")
        if loss_mode not in LOSS_MODES:
            raise ValueError(
                f"loss_mode must be one of {LOSS_MODES}, got {loss_mode!r}"
            )
        self.link = link
        self.loss_mode = loss_mode
        self.rng = random.Random(seed)
        self.obs = obs
        self.check = check = resolve_check(check)

        # Scenario extensions (repro.scenario): a non-constant capacity
        # trace schedules piecewise-constant capacity steps, an AQM spec
        # adds deterministic per-tick drop/mark volumes.  The drop-tail/
        # constant default has no steps and no AQM object, leaving the
        # tick loop untouched bit for bit.
        trace = link.capacity_trace
        if not trace.is_constant:
            self._cap_events = list(trace.change_events())
            self.capacity_now = link.capacity * trace.scale_at(0.0)
        else:
            self._cap_events = []
            self.capacity_now = link.capacity
        self._cap_cursor = 0

        self.specs = list(flows)
        self.flows = []
        for flow_id, spec in enumerate(flows):
            rtt = spec.rtt if spec.rtt is not None else link.rtt
            start = spec.start_time
            if start_jitter > 0:
                start += self.rng.uniform(0.0, start_jitter)
            flow = make_fluid_flow(
                spec.cc,
                flow_id=flow_id,
                rtt=rtt,
                start_time=start,
                mss=link.mss,
                **spec.cc_kwargs,
            )
            flow.obs = obs
            flow.check = check
            self.flows.append(flow)
        self._loss_based = [f.loss_based for f in self.flows]
        #: Flows whose ``on_drop`` counts dropped bytes (BBRv2, Vivace);
        #: everyone else's is a no-op and is not called.
        self._counts_drops = [
            type(f).on_drop is not FluidFlow.on_drop for f in self.flows
        ]

        min_rtt = min(f.rtt for f in self.flows)
        self.dt = dt if dt is not None else min_rtt / 4.0
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        self._aqm = make_fluid_aqm(link, self.dt)
        self._equal_rtt = all(f.rtt == self.flows[0].rtt for f in self.flows)
        # Rate-conservation tolerance: relative float slack plus the
        # bisection's 1-byte queue tolerance amplified by 1/min_rtt
        # (d(rate)/d(queue-bytes) is bounded by 1/rtt_min).
        self._rate_slack = link.capacity * 1e-6 + 2.0 / min_rtt

        # Loss-perception state for the proportional mode.
        self._drop_accumulator = [0.0] * len(self.flows)
        self._drop_threshold = [float(link.mss)] * len(self.flows)

        # Optional tracing.  An instrumented run with a sampling cadence
        # inherits it as the trace interval, so fluid snapshots land in
        # the same unified JSONL stream as packet-sim tracer samples.
        if trace_interval is None and obs is not None:
            trace_interval = obs.sample_interval
        if trace_interval is not None and trace_interval <= 0:
            raise ValueError(
                f"trace_interval must be positive, got {trace_interval}"
            )
        self.trace_interval = trace_interval
        #: Per-flow lists of congestion-backoff times (seconds).
        self.loss_events: List[List[float]] = [
            [] for _ in range(len(self.flows))
        ]
        #: Snapshot rows: (time, [inflight per flow], queue_bytes).
        self.trace: List[Tuple[float, List[float], float]] = []
        self._next_trace = 0.0

        # Short-flow completion tracking.
        self._finished = [False] * len(self.flows)

        # Measurement accumulators.
        self._delivered = [0.0] * len(self.flows)
        self._delivered_window = [0.0] * len(self.flows)
        self._lost = [0.0] * len(self.flows)
        self._queue_integral = 0.0
        self._time_simulated = 0.0
        self._measure_start = 0.0
        self.queue_bytes = 0.0
        self._has_run = False
        self._steps_run = 0

    def _is_active(self, i: int, now: float) -> bool:
        """Whether flow ``i`` is currently sending."""
        if self._finished[i]:
            return False
        flow = self.flows[i]
        if now < flow.start_time:
            return False
        stop = self.specs[i].stop_time
        return stop is None or now < stop

    # -- queue solving ----------------------------------------------------

    def _solve_queue(self, inflights: List[float]) -> float:
        """Queue size (bytes) implied by the in-flight totals."""
        capacity = self.capacity_now
        if self._equal_rtt:
            bdp = capacity * self.flows[0].rtt
            return max(0.0, sum(inflights) - bdp)
        # Heterogeneous RTTs: find Q ≥ 0 with Σ w_i/(rtt_i + Q/C) = C.
        total = sum(inflights)
        demand = sum(
            w / f.rtt for w, f in zip(inflights, self.flows) if w > 0
        )
        if demand <= capacity:
            return 0.0
        lo, hi = 0.0, total
        for _ in range(50):
            mid = (lo + hi) / 2.0
            qd = mid / capacity
            rate = sum(
                w / (f.rtt + qd)
                for w, f in zip(inflights, self.flows)
                if w > 0
            )
            if rate > capacity:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1.0:  # 1-byte tolerance
                break
        return (lo + hi) / 2.0

    # -- loss assignment ----------------------------------------------------

    def _pick_victims(
        self, queue_shares: List[float], responsive: List[int]
    ) -> List[int]:
        """Choose which loss-responsive flows back off on an overflow.

        ``sync`` and ``desync`` realize §2.4's two boundary cases directly.
        ``proportional`` backs a flow off only once it has *absorbed* at
        least one segment's worth of drops (tracked in
        ``_drop_accumulator``), which is how losses are actually perceived:
        drops land on flows in proportion to their queue share, so lightly
        represented flows are rarely hit — synchronization emerges rather
        than being imposed.
        """
        if not responsive:
            return []
        if self.loss_mode == "sync":
            return list(responsive)
        if self.loss_mode == "desync":
            return [max(responsive, key=lambda i: queue_shares[i])]
        victims = []
        for i in responsive:
            if self._drop_accumulator[i] >= self._drop_threshold[i]:
                victims.append(i)
                self._drop_accumulator[i] = 0.0
                # Jitter the next loss-perception threshold so equal flows
                # do not stay artificially locked in step across trials.
                self._drop_threshold[i] = self.link.mss * (
                    0.5 + self.rng.random()
                )
        return victims

    # -- main loop ------------------------------------------------------------

    def run(self, duration: float, warmup: float = 0.0) -> SimulationResult:
        """Advance the simulation and return paper-style per-flow results."""
        if self._has_run:
            raise RuntimeError(
                "FluidSimulation.run() may only be called once per "
                "instance (accumulators are not reset); build a new "
                "simulation for another trial"
            )
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if not 0 <= warmup < duration:
            raise ValueError(f"warmup must lie in [0, duration)")
        self._has_run = True
        capacity = self.capacity_now
        buffer_bytes = self.link.buffer_bytes
        check = self.check
        obs = self.obs
        trace_interval = self.trace_interval
        dt = self.dt
        flows = self.flows
        n = len(flows)
        rtts = [f.rtt for f in flows]
        sizes = [spec.size_bytes for spec in self.specs]
        delivered_total = self._delivered
        delivered_window = self._delivered_window
        ctx = TickContext()
        ctx.dt = dt

        # Previous tick's allocation, for flow observations.
        prev_rate = [0.0] * n
        lost_this_tick = [0.0] * n
        queue_delay = 0.0

        # Which flows send is decided once per tick.  It changes only at
        # a start, a stop or a finished transfer, so without stop times
        # and sizes it is settled for good once every flow has started.
        lifetimes = any(
            spec.stop_time is not None or spec.size_bytes is not None
            for spec in self.specs
        )
        settled = False

        now = 0.0
        measure_started = warmup == 0.0
        steps = int(math.ceil(duration / dt))
        for _step in range(steps):
            now += dt
            if self._cap_events:
                capacity = self._apply_capacity_steps(now)
            if not measure_started and now >= warmup:
                measure_started = True
                self._measure_start = now
                delivered_window = self._delivered_window = [0.0] * n
            if not settled:
                active = [i for i in range(n) if self._is_active(i, now)]
                settled = len(active) == n and not lifetimes

            # 1. Flows update their in-flight targets.
            ctx.now = now
            ctx.queue_delay = queue_delay
            for i in active:
                flow = flows[i]
                ctx.throughput = prev_rate[i]
                ctx.rtt_measured = rtts[i] + queue_delay
                ctx.lost_bytes = lost_this_tick[i]
                flow.tick(ctx)
                lost_this_tick[i] = 0.0
                if check is not None:
                    check.fluid_flow(now, flow)

            if settled:
                inflights = [f.inflight for f in flows]
            else:
                inflights = [0.0] * n
                for i in active:
                    inflights[i] = flows[i].inflight

            # 2-4. Solve the queue; handle overflow, then the AQM.
            queue = self._solve_queue(inflights)
            if queue > buffer_bytes:
                queue = self._handle_overflow(
                    now, inflights, queue, lost_this_tick
                )
            if self._aqm is not None:
                queue = self._apply_aqm(
                    now, inflights, queue, lost_this_tick
                )
            queue_delay = queue / capacity

            if trace_interval is not None and now >= self._next_trace:
                self._next_trace = now + trace_interval
                self.trace.append((now, list(inflights), queue))
                if obs is not None:
                    for i in active:
                        flow = flows[i]
                        obs.sample(
                            now,
                            flow.flow_id,
                            cc=flow.name,
                            cwnd=inflights[i],
                            in_flight=inflights[i],
                            pacing_rate=prev_rate[i],
                            state=flow.state,
                        )

            # 5. Integrate throughput.
            utilization = 0.0
            for i, w in enumerate(inflights):
                if w <= 0:
                    prev_rate[i] = 0.0
                    continue
                rate = w / (rtts[i] + queue_delay)
                prev_rate[i] = rate
                delivered = rate * dt
                delivered_total[i] += delivered
                if measure_started:
                    delivered_window[i] += delivered
                utilization += rate
                size = sizes[i]
                if size is not None and delivered_total[i] >= size:
                    self._finished[i] = True
            if check is not None:
                # Overflow ticks (queue clamped at the buffer) are
                # exempt from the strict ≤-capacity bound: the clamped
                # queue intentionally understates the delay there.
                check.fluid_conservation(
                    now,
                    total_rate=utilization,
                    capacity=capacity,
                    queue=queue,
                    buffer_bytes=buffer_bytes,
                    slack=self._rate_slack,
                    strict=queue < buffer_bytes - 1e-9,
                )
            if measure_started:
                self._queue_integral += queue * dt
                self._time_simulated += dt

        self.queue_bytes = queue
        self._steps_run = steps
        if obs is not None:
            obs.count("fluid.steps", steps)
        return self._build_result(duration, warmup)

    def _handle_overflow(
        self,
        now: float,
        inflights: List[float],
        queue: float,
        lost_this_tick: List[float],
    ) -> float:
        """Drop the excess, let drop-hit flows back off; returns the queue."""
        buffer_bytes = self.link.buffer_bytes
        excess = queue - buffer_bytes
        total_inflight = sum(inflights)
        if total_inflight <= 0:
            return buffer_bytes
        if self.obs is not None:
            # Fluid "drops" are byte quantities; packet counts follow by
            # the MSS so fluid and packet traces share one counter set.
            self.obs.count(
                "link.dropped_packets",
                max(int(excess / self.link.mss), 1),
            )
            self.obs.count("link.dropped_bytes", int(excess))
            self.obs.event(
                "link.drop",
                time=now,
                dropped_bytes=excess,
                queued_bytes=buffer_bytes,
            )

        queue_shares = [w / total_inflight for w in inflights]
        self._drop(now, inflights, excess, queue_shares, lost_this_tick)
        return self._back_off(now, inflights, queue_shares)

    def _drop(
        self,
        now: float,
        inflights: List[float],
        volume: float,
        queue_shares: List[float],
        lost_this_tick: List[float],
    ) -> None:
        """Drop ``volume`` bytes from the sending flows.

        Assumption 3 of §2.3: packets are uniformly mixed in the buffer,
        so drops land on flows in proportion to their in-flight share.
        """
        flows = self.flows
        counts_drops = self._counts_drops
        lost = self._lost
        accumulator = self._drop_accumulator
        for i, w in enumerate(inflights):
            if w <= 0:
                continue
            drop = volume * queue_shares[i]
            left = w - drop
            inflights[i] = 0.0 if left < 0.0 else left  # max(left, 0.0)
            if counts_drops[i]:
                flows[i].on_drop(now, drop)
            lost[i] += drop
            lost_this_tick[i] += drop
            accumulator[i] += drop

    def _back_off(
        self, now: float, inflights: List[float], queue_shares: List[float]
    ) -> float:
        """Back off the victims the loss mode picks among the sending
        loss-based flows; returns the re-solved queue."""
        loss_based = self._loss_based
        responsive = [
            i for i, w in enumerate(inflights) if loss_based[i] and w > 0
        ]
        for i in self._pick_victims(queue_shares, responsive):
            flow = self.flows[i]
            flow.on_loss(now)
            inflights[i] = min(inflights[i], flow.inflight)
            self.loss_events[i].append(now)
        return min(self._solve_queue(inflights), self.link.buffer_bytes)

    def _apply_capacity_steps(self, now: float) -> float:
        """Apply due capacity-trace steps; returns the current capacity.

        Steps take effect on the first tick whose time reaches the step
        time (the fluid analogue of the packet substrate's event-loop
        scheduling).
        """
        events = self._cap_events
        cursor = self._cap_cursor
        base = self.link.capacity
        while cursor < len(events) and now >= events[cursor][0]:
            scale = events[cursor][1]
            cursor += 1
            self.capacity_now = base * scale
            if self.obs is not None:
                self.obs.count("link.capacity_changes")
                self.obs.event(
                    "link.capacity_change",
                    time=now,
                    capacity=self.capacity_now,
                )
            if self.check is not None:
                self.check.capacity_change(now, self.capacity_now)
        self._cap_cursor = cursor
        return self.capacity_now

    def _apply_aqm(
        self,
        now: float,
        inflights: List[float],
        queue: float,
        lost_this_tick: List[float],
    ) -> float:
        """Apply this tick's AQM decision; returns the re-solved queue.

        The decision object (:mod:`repro.fluidsim.aqmfluid`) turns the
        solved queue into an affected byte volume.  Without ECN those
        bytes are *dropped*: they land on flows in proportion to queue
        share (Assumption 3 of §2.3, exactly like overflow drops) and
        count as lost.  With ECN the same volume is *marked*: no bytes
        are removed, but the marks feed the same loss-perception
        accumulator, so loss-based flows back off as the paper's model
        expects a congestion signal to make them — the fluid analogue
        of RFC 3168's mark-equals-loss control response.
        """
        volume = self._aqm.tick(now, queue, self.capacity_now, self.dt)
        if volume <= 0.0:
            return queue
        total_inflight = sum(inflights)
        if total_inflight <= 0:
            return queue
        volume = min(volume, total_inflight)
        ecn = self._aqm.ecn
        mss = self.link.mss
        queue_shares = [w / total_inflight for w in inflights]
        if ecn:
            accumulator = self._drop_accumulator
            for i, w in enumerate(inflights):
                if w <= 0:
                    continue
                accumulator[i] += volume * queue_shares[i]
            if self.obs is not None:
                self.obs.count(
                    "link.ecn_marks", max(int(volume / mss), 1)
                )
                self.obs.event(
                    "link.mark",
                    time=now,
                    marked_bytes=volume,
                    queued_bytes=queue,
                )
        else:
            self._drop(now, inflights, volume, queue_shares, lost_this_tick)
            if self.obs is not None:
                self.obs.count(
                    "link.aqm_drops", max(int(volume / mss), 1)
                )
                self.obs.count(
                    "link.dropped_packets", max(int(volume / mss), 1)
                )
                self.obs.count("link.dropped_bytes", int(volume))
                self.obs.event(
                    "link.drop",
                    time=now,
                    dropped_bytes=volume,
                    queued_bytes=queue,
                    aqm=True,
                )
        return self._back_off(now, inflights, queue_shares)

    def _build_result(
        self, duration: float, warmup: float
    ) -> SimulationResult:
        measured = max(duration - warmup, self.dt)
        flows = []
        for i, flow in enumerate(self.flows):
            delivered = self._delivered_window[i]
            sent = self._delivered[i] + self._lost[i]
            flows.append(
                FlowResult(
                    flow_id=flow.flow_id,
                    cc=flow.name,
                    throughput=delivered / measured,
                    mean_rtt=None,
                    min_rtt=flow.rtt,
                    loss_rate=self._lost[i] / sent if sent > 0 else 0.0,
                    delivered_bytes=int(delivered),
                    # Every lost byte must be re-sent by a reliable
                    # transport: one retransmission per MSS of loss.
                    retransmits=int(self._lost[i] / self.link.mss),
                )
            )
        mean_queue = (
            self._queue_integral / self._time_simulated
            if self._time_simulated > 0
            else 0.0
        )
        total_sent = sum(self._delivered) + sum(self._lost)
        drop_rate = sum(self._lost) / total_sent if total_sent > 0 else 0.0
        return SimulationResult(
            flows=flows,
            duration=duration,
            warmup=warmup,
            mean_queue_bytes=mean_queue,
            mean_queuing_delay=mean_queue / self.link.capacity,
            drop_rate=drop_rate,
            events_processed=self._steps_run,
        )


def run_fluid(
    link: BottleneckSpec,
    flows: Sequence[FluidSpec],
    duration: float,
    warmup: float = 0.0,
    dt: Optional[float] = None,
    loss_mode: str = "proportional",
    seed: int = 0,
    start_jitter: float = 0.0,
    obs: Optional["Telemetry"] = None,
    check: Optional["Checker"] = None,
) -> SimulationResult:
    """Convenience one-shot fluid simulation run.

    ``obs`` is the telemetry bus that records this run (None: nothing
    is recorded).  ``check`` defaults to the process-wide invariant
    checker (see :mod:`repro.check`).
    """
    sim = FluidSimulation(
        link,
        flows,
        dt=dt,
        loss_mode=loss_mode,
        seed=seed,
        start_jitter=start_jitter,
        obs=obs,
        check=check,
    )
    return sim.run(duration, warmup)
