"""Time-stepped fluid-flow simulator for large bottleneck sweeps.

The paper's Nash-equilibrium experiments need per-distribution mean
throughputs for up to 50 concurrent 2-minute flows, across thousands of
scenario combinations — far beyond what a packet-level simulator can sweep
in reasonable time.  This module models each flow as a *fluid*: a window
(or in-flight target) evolving in discrete time steps, sharing one
bottleneck — drop-tail, or RED / CoDel (:mod:`repro.fluidsim.aqmfluid`),
with a capacity that may follow a trace.

Per tick:

1. one pass over the sending flows integrates each one's throughput
   over the last tick, ``λ_i = inflight_i / (rtt_i + Q/C)``, and hands
   it to the flow, which updates its in-flight target (its
   congestion-control law);
2. the shared queue is solved from the in-flight total (closed form for
   equal RTTs, bisection otherwise);
3. if the queue exceeds the buffer, one more pass drops the excess in
   proportion to in-flight share and backs off the loss-based flows the
   synchronization mode picks as victims;
4. an AQM, if any, turns the queue into a drop (or ECN-mark) volume,
   shared out and answered the same way.

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
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.fluidsim.aqmfluid import make_fluid_aqm
from repro.fluidsim.spec import FluidSpec
from repro.scenario import LOSS_MODES
from repro.scenario.result import FlowResult, SimulationResult
from repro.scenario.spec import BottleneckSpec, check_run_window

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
    )

    def __init__(self) -> None:
        self.now = 0.0
        self.dt = 0.0
        self.throughput = 0.0
        self.rtt_measured = 0.0
        self.queue_delay = 0.0


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
        obs: Optional telemetry bus, the one recorder of the run:
            attached to every fluid flow (so BBR phase transitions and
            backoffs become typed ``cc.state`` / ``cc.backoff`` events)
            and fed overflow/drop counters.  When the bus has a
            ``sample_interval``, every sending flow's in-flight, rate
            and state are written to it as a per-flow ``sample`` at that
            period.  The backoff times are how the paper "checked the
            traces" for CUBIC synchronization (§3.2, §5;
            :mod:`repro.analysis.sync`).
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

        # Measurement accumulators.
        self._delivered = [0.0] * len(self.flows)
        self._delivered_window = [0.0] * len(self.flows)
        self._lost = [0.0] * len(self.flows)
        self._queue_integral = 0.0
        self._time_simulated = 0.0
        self.queue_bytes = 0.0
        self._has_run = False
        self._steps_run = 0

    # -- queue solving ----------------------------------------------------

    def _solve_queue(self, inflights: List[float], total: float) -> float:
        """Queue bytes implied by ``inflights``, which sum to ``total``."""
        capacity = self.capacity_now
        if self._equal_rtt:
            queue = total - capacity * self.flows[0].rtt
            return queue if queue > 0.0 else 0.0  # max(0.0, queue)
        # Heterogeneous RTTs: find Q ≥ 0 with Σ w_i/(rtt_i + Q/C) = C.
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

    # -- main loop ------------------------------------------------------------

    def run(self, duration: float, warmup: float = 0.0) -> SimulationResult:
        """Advance the simulation and return paper-style per-flow results."""
        if self._has_run:
            raise RuntimeError(
                "FluidSimulation.run() may only be called once per "
                "instance (accumulators are not reset); build a new "
                "simulation for another trial"
            )
        check_run_window(duration, warmup)
        self._has_run = True
        capacity = self.capacity_now
        buffer_bytes = self.link.buffer_bytes
        check = self.check
        obs = self.obs
        sample_interval = obs.sample_interval if obs is not None else None
        next_sample = 0.0
        dt = self.dt
        flows = self.flows
        n = len(flows)
        rtts = [f.rtt for f in flows]
        delivered_total = self._delivered
        delivered_window = self._delivered_window
        ctx = TickContext()
        ctx.dt = dt

        # The last tick's in-flight volumes after its signals (0.0 before
        # a flow starts) and queue delay, which each pass integrates.
        inflights = [0.0] * n
        queue = queue_delay = 0.0

        # Which flows send is decided once per tick until every flow
        # has started; a flow sends from its start to the end of the run.
        settled = False

        now = 0.0
        measure_started = warmup == 0.0
        steps = int(math.ceil(duration / dt))
        for _step in range(steps):
            now += dt
            if self._cap_events:
                capacity = self._apply_capacity_steps(now)
            # Whether the last tick, integrated below, is measured.
            measured = measure_started
            if not measure_started and now >= warmup:
                measure_started = True
            if not settled:
                active = [i for i in range(n) if now >= flows[i].start_time]
                settled = len(active) == n
            sampling = sample_interval is not None and now >= next_sample
            if sampling:
                # The rates the pass below integrates, for the samples.
                rates = [
                    0.0 if w <= 0 else w / (rtt + queue_delay)
                    for w, rtt in zip(inflights, rtts)
                ]

            # 1. Integrate the last tick; flows update their targets.
            ctx.now = now
            ctx.queue_delay = queue_delay
            total = 0.0
            for i in active:
                flow = flows[i]
                w = inflights[i]
                rtt = rtts[i] + queue_delay
                if w <= 0:
                    rate = 0.0
                else:
                    rate = w / rtt
                    delivered = rate * dt
                    delivered_total[i] += delivered
                    if measured:
                        delivered_window[i] += delivered
                ctx.throughput = rate
                ctx.rtt_measured = rtt
                flow.tick(ctx)
                if check is not None:
                    check.fluid_flow(now, flow)
                w = inflights[i] = flow.inflight
                total += w

            # 2-4. Solve the queue; handle overflow, then the AQM.
            queue = self._solve_queue(inflights, total)
            if queue > buffer_bytes:
                queue = self._handle_overflow(now, inflights, total, queue)
            if self._aqm is not None:
                queue = self._apply_aqm(now, inflights, queue)
            queue_delay = queue / capacity

            if sampling:
                next_sample = now + sample_interval
                for i in active:
                    flow = flows[i]
                    obs.sample(
                        now,
                        flow.flow_id,
                        cc=flow.name,
                        cwnd=inflights[i],
                        in_flight=inflights[i],
                        pacing_rate=rates[i],
                        state=flow.state,
                    )
            if check is not None:
                # This tick's rates, summed as the next pass credits
                # them.  Overflow ticks (queue clamped at the buffer)
                # are exempt from the strict ≤-capacity bound: the
                # clamped queue intentionally understates the delay.
                utilization = 0.0
                for w, rtt in zip(inflights, rtts):
                    if w <= 0:
                        continue
                    utilization += w / (rtt + queue_delay)
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

        # 5. Integrate the last tick.
        for i, w in enumerate(inflights):
            if w <= 0:
                continue
            delivered = w / (rtts[i] + queue_delay) * dt
            delivered_total[i] += delivered
            if measure_started:
                delivered_window[i] += delivered

        self.queue_bytes = queue
        self._steps_run = steps
        if obs is not None:
            obs.count("fluid.steps", steps)
        return self._build_result(duration, warmup)

    # -- congestion signals ---------------------------------------------------

    def _handle_overflow(
        self,
        now: float,
        inflights: List[float],
        total: float,
        queue: float,
    ) -> float:
        """Drop the excess, let drop-hit flows back off; returns the queue."""
        buffer_bytes = self.link.buffer_bytes
        excess = queue - buffer_bytes
        if total <= 0:
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
        return self._signal(now, inflights, total, excess, True)

    def _signal(
        self,
        now: float,
        inflights: List[float],
        total: float,
        volume: float,
        drop: bool,
    ) -> float:
        """Share ``volume`` bytes of congestion signal out over the
        sending flows and back off its victims; returns the re-solved
        queue.

        Assumption 3 of §2.3: packets are uniformly mixed in the buffer,
        so the signal lands on flows in proportion to their share of the
        ``total`` in flight; ``drop`` removes it.  Which sending
        loss-based flows back off is the loss mode's choice.  ``sync``
        and ``desync`` realize §2.4's two boundary cases directly: all
        of them, or the first with the largest share.  ``proportional``
        backs a flow off only once it has *absorbed* at least one
        segment's worth of signal (tracked in ``_drop_accumulator``),
        which is how losses are actually perceived: lightly represented
        flows are rarely hit, so synchronization emerges rather than
        being imposed.
        """
        flows = self.flows
        loss_based = self._loss_based
        accumulator = self._drop_accumulator
        mode = self.loss_mode
        victim, largest = -1, 0.0
        for i, w in enumerate(inflights):
            if w <= 0:
                continue
            share = w / total
            signal = volume * share
            if drop:
                left = w - signal
                # max(left, 0.0), with the builtin's tie rule.
                w = inflights[i] = 0.0 if left < 0.0 else left
                if self._counts_drops[i]:
                    flows[i].on_drop(now, signal)
                self._lost[i] += signal
            accumulator[i] += signal
            if not (loss_based[i] and w > 0):
                continue
            if mode == "desync":
                if victim < 0 or share > largest:
                    victim, largest = i, share
                continue
            if mode == "proportional":
                if not accumulator[i] >= self._drop_threshold[i]:
                    continue
                accumulator[i] = 0.0
                # Jitter the next loss-perception threshold so equal flows
                # do not stay artificially locked in step across trials.
                self._drop_threshold[i] = self.link.mss * (
                    0.5 + self.rng.random()
                )
            flow = flows[i]
            flow.on_loss(now)
            inflights[i] = min(w, flow.inflight)
        if victim >= 0:
            flow = flows[victim]
            flow.on_loss(now)
            inflights[victim] = min(inflights[victim], flow.inflight)
        return min(
            self._solve_queue(inflights, sum(inflights)),
            self.link.buffer_bytes,
        )

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
    ) -> float:
        """Apply this tick's AQM decision; returns the re-solved queue.

        The decision object (:mod:`repro.fluidsim.aqmfluid`) turns the
        solved queue into a byte volume, *dropped* exactly like overflow
        drops, or with ECN *marked*: no bytes are removed, but the marks
        feed the same loss-perception accumulator, so loss-based flows
        back off as to a loss — the fluid analogue of RFC 3168's
        mark-equals-loss control response.
        """
        volume = self._aqm.tick(now, queue, self.capacity_now, self.dt)
        if volume <= 0.0:
            return queue
        total = sum(inflights)
        if total <= 0:
            return queue
        volume = min(volume, total)
        ecn = self._aqm.ecn
        obs = self.obs
        if obs is not None:
            packets = max(int(volume / self.link.mss), 1)
            if ecn:
                obs.count("link.ecn_marks", packets)
                obs.event(
                    "link.mark",
                    time=now,
                    marked_bytes=volume,
                    queued_bytes=queue,
                )
            else:
                obs.count("link.aqm_drops", packets)
                obs.count("link.dropped_packets", packets)
                obs.count("link.dropped_bytes", int(volume))
                obs.event(
                    "link.drop",
                    time=now,
                    dropped_bytes=volume,
                    queued_bytes=queue,
                    aqm=True,
                )
        return self._signal(now, inflights, total, volume, not ecn)

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
