"""Fluid-model congestion-control dynamics: per-tick adapters over
:mod:`repro.cc.laws`.

Each class drives the *same* control-law kernels as its per-ACK
counterpart in :mod:`repro.cc`, at tick granularity: instead of
processing individual ACKs, a flow observes last tick's throughput and
RTT (:class:`~repro.fluidsim.core.TickContext`) and updates its
in-flight target.  Every constant, gain table, and state-machine rule
comes from the law modules — e.g. :class:`FluidCubic` evaluates
:func:`repro.cc.laws.cubic.window` and backs off via
:func:`repro.cc.laws.cubic.reduce_w_max` exactly as
:class:`repro.cc.cubic.Cubic` does — so model assumptions validated
against the packet simulator carry over structurally, not by
convention.  The cross-substrate parity suite (``tests/test_parity.py``)
enforces the resulting agreement end to end.

Power functions (slow-start doubling, CUBIC's cube and cube root,
Vivace's utility exponent) are evaluated through
:mod:`repro.fluidsim.mathops` — CUBIC's cube one ``np.power`` per block
of an epoch's upcoming ticks (:func:`~repro.fluidsim.mathops.cubic_cubes`)
— so this scalar path and the vectorized one (:mod:`repro.fluidsim.vec`)
round identically and stay *bitwise* comparable; see that module for
why.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional

from repro.cc.laws import bbr as bbr_laws
from repro.cc.laws import bbr2 as bbr2_laws
from repro.cc.laws import copa as copa_laws
from repro.cc.laws import cubic as cubic_laws
from repro.cc.laws import registry as laws_registry
from repro.cc.laws import reno as reno_laws
from repro.cc.laws import vegas as vegas_laws
from repro.cc.laws import vivace as vivace_laws
from repro.cc.laws.base import (
    INITIAL_CWND_SEGMENTS,
    MIN_CWND_SEGMENTS,
    CongestionEventGate,
)
from repro.fluidsim import mathops
from repro.fluidsim.core import TickContext
from repro.util.filters import WindowedMax, WindowedMin

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.core import Checker
    from repro.obs.bus import Telemetry


class FluidFlow:
    """Base class: a congestion-controlled fluid at one bottleneck."""

    name = "fluid"
    loss_based = True

    def __init__(
        self,
        flow_id: int,
        rtt: float,
        start_time: float = 0.0,
        mss: int = 1500,
    ) -> None:
        if rtt <= 0:
            raise ValueError(f"rtt must be positive, got {rtt}")
        self.flow_id = flow_id
        self.rtt = rtt
        self.start_time = start_time
        self.mss = mss
        self.inflight = float(INITIAL_CWND_SEGMENTS * mss)  # IW10.
        #: Floor on in-flight data, bytes (the 2-segment cwnd floor).
        self.min_inflight = float(MIN_CWND_SEGMENTS * mss)
        self._loss_gate = CongestionEventGate()
        self._last_rtt_measured = rtt
        #: Optional telemetry bus; None (the default) means disabled, and
        #: every emission site guards on that so uninstrumented sweeps pay
        #: a single attribute test per event site.
        self.obs: Optional["Telemetry"] = None
        #: Optional invariant checker; same guard discipline as ``obs``.
        self.check: Optional["Checker"] = None

    @property
    def state(self) -> Optional[str]:
        """State-machine label for tracing; None for stateless flows."""
        return None

    def emit(self, name: str, now: float, **fields: object) -> None:
        """Emit a typed event tagged with this flow's CCA and id."""
        obs = self.obs
        if obs is not None:
            obs.event(
                name, time=now, cc=self.name, flow_id=self.flow_id, **fields
            )

    def emit_state(self, now: float, old: str, new: str) -> None:
        """Emit a ``cc.state`` transition event (BBR-family phases)."""
        check = self.check
        if check is not None:
            check.state_transition(
                now, self.name, self.flow_id, old, new, substrate="fluid"
            )
        obs = self.obs
        if obs is not None:
            obs.event(
                "cc.state",
                time=now,
                cc=self.name,
                flow_id=self.flow_id,
                **{"from": old, "to": new},
            )
            obs.count("cc.state_transitions")

    def tick(self, ctx: TickContext) -> None:
        """Observe last tick's state and update :attr:`inflight`."""
        raise NotImplementedError

    def on_loss(self, now: float) -> None:
        """Congestion backoff (rate-limited to once per RTT by callers)."""

    def on_drop(self, now: float, dropped_bytes: float) -> None:
        """Physical drop of fluid (loss-agnostic flows just lose bytes)."""

    def _loss_guard(self, now: float) -> bool:
        """True when a loss should count as a new congestion event."""
        return self._loss_gate.admit(now, self._last_rtt_measured)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} id={self.flow_id} "
            f"inflight={self.inflight:.0f}B>"
        )


class FluidCubic(FluidFlow):
    """CUBIC as a fluid: slow start, cubic growth, 0.7 backoff."""

    name = "cubic"
    loss_based = True

    def __init__(
        self,
        flow_id: int,
        rtt: float,
        start_time: float = 0.0,
        mss: int = 1500,
    ) -> None:
        super().__init__(flow_id, rtt, start_time, mss)
        self._in_slow_start = True
        self._w_max_pkts: Optional[float] = None
        self._epoch_start: Optional[float] = None
        self._k = 0.0
        # The epoch's cube block: predicted tick times, their cubes, the
        # next index to serve and the size of the next block.
        self._times: List[float] = []
        self._cubes: List[float] = []
        self._next = 0
        self._block = mathops.CUBE_BLOCK_MIN

    def tick(self, ctx: TickContext) -> None:
        rtt_measured = ctx.rtt_measured
        self._last_rtt_measured = rtt_measured
        if self._in_slow_start:
            self.inflight *= float(mathops.exp2(ctx.dt / rtt_measured))
            return
        now = ctx.now
        mss = self.mss
        if self._epoch_start is None:
            # cubic_laws.begin_epoch, with K through the shared kernel.
            self._epoch_start = now
            cwnd_segments = self.inflight / mss
            if self._w_max_pkts is None or self._w_max_pkts < cwnd_segments:
                self._w_max_pkts, self._k = cwnd_segments, 0.0
            else:
                self._k = float(mathops.cubic_k(self._w_max_pkts))
            self._times = []
            self._block = mathops.CUBE_BLOCK_MIN
        # mathops.cubic_window with numpy for the power only: C·p + W_max
        # in Python floats rounds exactly as on numpy scalars.  The cube
        # is served from a block computed ahead while the clock runs as
        # predicted; any other tick starts a new block from itself.
        i = self._next
        if i < len(self._times) and self._times[i] == now:
            cube = self._cubes[i]
            self._next = i + 1
        else:
            self._times, self._cubes = mathops.cubic_cubes(
                now, ctx.dt, self._epoch_start, self._k, self._block
            )
            cube = self._cubes[0]
            self._next = 1
            self._block = min(2 * self._block, mathops.CUBE_BLOCK_MAX)
        target = (cubic_laws.C_CUBIC * cube + self._w_max_pkts) * mss
        if self.min_inflight > target:
            target = self.min_inflight
        # The window is ack-clocked: it cannot grow faster than one extra
        # packet per delivered packet (slow-start bound), with a floor of
        # one segment per RTT so a starved flow can still probe.  (The
        # conditionals are max / min with the builtins' tie rule.)
        dt = ctx.dt
        growth = ctx.throughput * dt
        probe = mss * dt / rtt_measured
        if probe > growth:
            growth = probe
        grown = self.inflight + growth
        self.inflight = grown if grown < target else target

    def on_loss(self, now: float) -> None:
        if not self._loss_guard(now):
            return
        self._w_max_pkts = cubic_laws.reduce_w_max(
            self.inflight / self.mss, self._w_max_pkts
        )
        self._k = float(mathops.cubic_k(self._w_max_pkts))
        cut = max(
            self.inflight * cubic_laws.BETA_CUBIC, self.min_inflight
        )
        self.emit(
            "cc.backoff",
            now,
            kind="multiplicative_decrease",
            beta=cubic_laws.BETA_CUBIC,
            cwnd_before=self.inflight,
            cwnd_after=cut,
        )
        self.inflight = cut
        self._epoch_start = None
        self._in_slow_start = False


class FluidReno(FluidFlow):
    """NewReno as a fluid: +1 MSS per RTT, halve on loss."""

    name = "reno"
    loss_based = True

    def __init__(
        self,
        flow_id: int,
        rtt: float,
        start_time: float = 0.0,
        mss: int = 1500,
    ) -> None:
        super().__init__(flow_id, rtt, start_time, mss)
        self._in_slow_start = True

    def tick(self, ctx: TickContext) -> None:
        self._last_rtt_measured = ctx.rtt_measured
        if self._in_slow_start:
            self.inflight *= float(mathops.exp2(ctx.dt / ctx.rtt_measured))
        else:
            self.inflight += self.mss * ctx.dt / ctx.rtt_measured

    def on_loss(self, now: float) -> None:
        if not self._loss_guard(now):
            return
        cut = max(reno_laws.md_window(self.inflight), self.min_inflight)
        self.emit(
            "cc.backoff",
            now,
            kind="multiplicative_decrease",
            beta=reno_laws.BETA,
            cwnd_before=self.inflight,
            cwnd_after=cut,
        )
        self.inflight = cut
        self._in_slow_start = False


class FluidBBR(FluidFlow):
    """BBRv1 as a fluid.

    Faithful to the mechanism that matters for the paper's model: the
    flow is *paced* at ``gain × bw_est`` (gain cycling through the
    8-phase PROBE_BW schedule of :data:`repro.cc.laws.bbr.GAIN_CYCLE`),
    so its in-flight data evolves as ``d(inflight)/dt = pacing −
    delivery`` and only grows when the pacer outruns the bottleneck
    share — capped at ``CWND_GAIN × bw_est × rtt_min_est`` (assumption 2
    of §2.3).  ``bw_est`` is a windowed max over 10 packet-timed rounds
    of its own delivery rate, ``rtt_min_est`` is refreshed by a 200 ms
    ProbeRTT drain every 10 s (assumption 5), and loss is ignored
    (assumption 4).
    """

    name = "bbr"
    loss_based = False

    def __init__(
        self,
        flow_id: int,
        rtt: float,
        start_time: float = 0.0,
        mss: int = 1500,
    ) -> None:
        super().__init__(flow_id, rtt, start_time, mss)
        self._bw_filter = WindowedMax(bbr_laws.BTLBW_FILTER_ROUNDS * rtt)
        self.rtt_min_est = rtt  # Fluid flows know no queue at t=0.
        self._rtt_min_stamp = 0.0
        #: RTprop expiry → ProbeRTT cadence (v2 overrides with its own).
        self._probe_rtt_interval = bbr_laws.RTPROP_FILTER_LEN
        self._in_startup = True
        self._full_pipe = bbr_laws.FullPipeDetector()
        self._next_growth_check = 0.0
        self._cycler = bbr_laws.GainCycler()
        self._probe_rtt_until: Optional[float] = None
        self._inflight_before_probe = 0.0
        #: In-flight floor while draining in PROBE_RTT, bytes.
        self.probe_rtt_floor = bbr_laws.PROBE_RTT_CWND_SEGMENTS * mss

    @property
    def bw_est(self) -> float:
        """Current bottleneck-bandwidth estimate (bytes/second)."""
        value = self._bw_filter.get()
        return value if value is not None else 0.0

    @property
    def state(self) -> str:
        """Current BBR phase.  The fluid model drains within one tick on
        STARTUP exit, so DRAIN never appears as a dwelt-in state here."""
        if self._probe_rtt_until is not None:
            return bbr_laws.PROBE_RTT
        return bbr_laws.STARTUP if self._in_startup else bbr_laws.PROBE_BW

    def tick(self, ctx: TickContext) -> None:
        now = ctx.now
        rtt_measured = ctx.rtt_measured
        throughput = ctx.throughput
        self._last_rtt_measured = rtt_measured
        # 10 packet-timed rounds at the current RTT (queueing included).
        bw_filter = self._bw_filter
        bw_filter.window = bbr_laws.BTLBW_FILTER_ROUNDS * rtt_measured
        if throughput > 0:
            bw = bw_filter.update(now, throughput)
        else:
            bw = self.bw_est
        # New minima refresh the estimate and the stamp (while draining
        # in ProbeRTT too, with our own queue share gone); expiry is
        # handled by entering ProbeRTT (which re-measures with the queue
        # drained), never by silently accepting a bloated sample.
        if rtt_measured <= self.rtt_min_est:
            self.rtt_min_est = rtt_measured
            self._rtt_min_stamp = now

        if self._probe_rtt_until is not None:
            if now < self._probe_rtt_until:
                self.inflight = self.probe_rtt_floor
                return
            # Exit ProbeRTT: restore the prior window in one burst.  The
            # collective burst when several BBR flows exit together is what
            # forces CUBIC synchronization (§5, "Forced synchronization").
            self._probe_rtt_until = None
            self._rtt_min_stamp = now
            self._cycler.stamp = now
            self.inflight = self._inflight_before_probe
            self.emit_state(now, bbr_laws.PROBE_RTT, self.state)

        if now - self._rtt_min_stamp > self._probe_rtt_interval:
            # RTprop filter expired: drain to re-measure (state 4 of §2.1).
            self._enter_probe_rtt(now)
            self.rtt_min_est = rtt_measured
            return

        in_startup = self._in_startup
        if in_startup:
            gain = bbr_laws.HIGH_GAIN
        else:
            gain = self._cycler.advance(now, self.rtt_min_est)
        pacing = gain * bw
        if pacing <= 0:
            # No estimate yet: pace the initial window over one RTT.
            pacing = INITIAL_CWND_SEGMENTS * self.mss / self.rtt
        # Sent-minus-delivered fluid balance, capped at gain × estimated
        # BDP and floored at the ProbeRTT window (min / max written as
        # conditionals with the builtins' tie rule).
        inflight = self.inflight + (pacing - throughput) * ctx.dt
        cap_gain = bbr_laws.HIGH_GAIN if in_startup else bbr_laws.CWND_GAIN
        cap = cap_gain * bw * self.rtt_min_est
        if 0 < cap < inflight:
            inflight = cap
        floor = self.probe_rtt_floor
        self.inflight = floor if floor > inflight else inflight

        if in_startup and now >= self._next_growth_check:
            self._check_startup_exit(now, rtt_measured, bw)

    def _check_startup_exit(
        self, now: float, rtt_measured: float, bw: float
    ) -> None:
        self._next_growth_check = now + rtt_measured
        if self._full_pipe.update(bw):
            self._in_startup = False
            self._cycler.reset(now)
            self.emit_state(now, bbr_laws.STARTUP, bbr_laws.PROBE_BW)
            # Drain: fall toward 1 estimated BDP before cruising.
            target = bw * self.rtt_min_est
            self.inflight = min(
                self.inflight, max(target, self.probe_rtt_floor)
            )

    def _enter_probe_rtt(self, now: float) -> None:
        old = self.state
        self._probe_rtt_until = now + bbr_laws.PROBE_RTT_DURATION
        self._inflight_before_probe = self.inflight
        self.inflight = self.probe_rtt_floor
        self.emit_state(now, old, bbr_laws.PROBE_RTT)


class FluidBBR2(FluidBBR):
    """BBRv2 as a fluid: BBR's estimators plus a loss-bounded in-flight
    cap (β cut, cruise headroom) and periodic cap re-probing."""

    name = "bbr2"
    loss_based = True

    def __init__(
        self,
        flow_id: int,
        rtt: float,
        start_time: float = 0.0,
        mss: int = 1500,
    ) -> None:
        super().__init__(flow_id, rtt, start_time, mss)
        self._probe_rtt_interval = bbr2_laws.PROBE_RTT_INTERVAL
        self.inflight_hi = float("inf")
        self._next_probe_up = 0.0
        self._round_lost = 0.0
        self._round_delivered = 0.0
        self._round_end = 0.0

    def tick(self, ctx: TickContext) -> None:
        super().tick(ctx)
        now = ctx.now
        self._round_delivered += ctx.throughput * ctx.dt
        if now >= self._round_end:
            self._round_end = now + ctx.rtt_measured
            self._round_lost = 0.0
            self._round_delivered = 0.0
        if self._probe_rtt_until is not None:
            return
        if now >= self._next_probe_up and math.isfinite(self.inflight_hi):
            # PROBE_UP: push the bound up to look for freed capacity.
            self.inflight_hi *= bbr2_laws.PROBE_UP_GAIN
            self._next_probe_up = now + bbr2_laws.PROBE_UP_INTERVAL
        cap = bbr2_laws.HEADROOM * self.inflight_hi
        if self.inflight > cap:
            self.inflight = max(cap, self.min_inflight)

    def on_drop(self, now: float, dropped_bytes: float) -> None:
        self._round_lost += dropped_bytes

    def on_loss(self, now: float) -> None:
        # BBRv2 tolerates up to LOSS_THRESH loss per round before bounding
        # inflight (its model-based loss response, §4.6).
        loss_rate = bbr2_laws.loss_rate(
            self._round_lost, self._round_delivered
        )
        if loss_rate <= bbr2_laws.LOSS_THRESH:
            return
        if not self._loss_guard(now):
            return
        self.inflight_hi = bbr2_laws.cut_inflight_hi(
            self.inflight_hi, self.inflight, self.min_inflight
        )
        self.inflight = min(self.inflight, self.inflight_hi)
        self._next_probe_up = now + bbr2_laws.PROBE_UP_INTERVAL
        self.emit(
            "cc.backoff",
            now,
            kind="inflight_hi_cut",
            beta=bbr2_laws.BETA,
            loss_rate=loss_rate,
            inflight_hi=self.inflight_hi,
        )


class FluidVegas(FluidFlow):
    """TCP Vegas as a fluid: ±1 MSS/RTT toward 2–4 packets of queue.

    The canonical delay-based loser against buffer-fillers (see
    :mod:`repro.cc.laws.vegas`); included for game-theoretic comparisons
    with the Reno/Vegas literature the paper cites.
    """

    name = "vegas"
    loss_based = True

    def __init__(
        self,
        flow_id: int,
        rtt: float,
        start_time: float = 0.0,
        mss: int = 1500,
    ) -> None:
        super().__init__(flow_id, rtt, start_time, mss)
        self._base_rtt = rtt
        self._in_slow_start = True

    def tick(self, ctx: TickContext) -> None:
        self._last_rtt_measured = ctx.rtt_measured
        self._base_rtt = min(self._base_rtt, ctx.rtt_measured)
        # Own queued packets: cwnd·(RTT − base)/RTT, in MSS.
        diff = vegas_laws.queued_packets(
            self.inflight, ctx.rtt_measured, self._base_rtt, self.mss
        )
        per_rtt = self.mss * ctx.dt / ctx.rtt_measured
        if self._in_slow_start:
            if diff > vegas_laws.GAMMA_PACKETS:
                self._in_slow_start = False
            else:
                # Doubling every other RTT averages to ×2 per 2 RTTs.
                self.inflight *= float(
                    mathops.exp2(ctx.dt / (2 * ctx.rtt_measured))
                )
                return
        if diff < vegas_laws.ALPHA_PACKETS:
            self.inflight += per_rtt
        elif diff > vegas_laws.BETA_PACKETS:
            self.inflight = max(
                self.inflight - per_rtt, self.min_inflight
            )

    def on_loss(self, now: float) -> None:
        if not self._loss_guard(now):
            return
        self._in_slow_start = False
        cut = max(
            self.inflight * vegas_laws.LOSS_BETA, self.min_inflight
        )
        self.emit(
            "cc.backoff",
            now,
            kind="multiplicative_decrease",
            beta=vegas_laws.LOSS_BETA,
            cwnd_before=self.inflight,
            cwnd_after=cut,
        )
        self.inflight = cut


class FluidCopa(FluidFlow):
    """Copa as a fluid: rate targeting 1/(δ·queuing delay) with velocity."""

    name = "copa"
    loss_based = True

    def __init__(
        self,
        flow_id: int,
        rtt: float,
        start_time: float = 0.0,
        mss: int = 1500,
    ) -> None:
        super().__init__(flow_id, rtt, start_time, mss)
        self._rtt_min_filter = WindowedMin(copa_laws.RTT_MIN_WINDOW)
        self.velocity = 1.0
        self._direction = 0
        self._same_direction = 0
        self._next_velocity_update = 0.0

    def tick(self, ctx: TickContext) -> None:
        now = ctx.now
        self._last_rtt_measured = ctx.rtt_measured
        rtt_min = self._rtt_min_filter.update(now, ctx.rtt_measured)
        dq = max(ctx.rtt_measured - rtt_min, 0.0)
        target_rate = copa_laws.target_rate(self.mss, dq)
        current_rate = self.inflight / ctx.rtt_measured

        direction = 1 if current_rate <= target_rate else -1
        if direction != self._direction:
            # Copa resets velocity the moment the direction flips; gating
            # this on the once-per-RTT check lets a stale high velocity
            # fling the window across its equilibrium.
            self.velocity = 1.0
            self._same_direction = 0
        elif now >= self._next_velocity_update:
            self._next_velocity_update = now + ctx.rtt_measured
            self._same_direction += 1
            if self._same_direction >= copa_laws.VELOCITY_DOUBLE_ROUNDS:
                self.velocity = copa_laws.double_velocity(self.velocity)

        acked_pkts = ctx.throughput * ctx.dt / self.mss
        step = (
            self.velocity
            * self.mss
            * self.mss
            * acked_pkts
            / (copa_laws.DELTA * max(self.inflight, self.mss))
        )
        # One tick's adjustment cannot exceed the window itself.
        step = min(step, self.inflight)
        self.inflight = max(
            self.inflight + direction * step, self.min_inflight
        )
        self._direction = direction

    def on_loss(self, now: float) -> None:
        if not self._loss_guard(now):
            return
        cut = max(
            self.inflight * copa_laws.LOSS_BETA, self.min_inflight
        )
        self.emit(
            "cc.backoff",
            now,
            kind="multiplicative_decrease",
            beta=copa_laws.LOSS_BETA,
            cwnd_before=self.inflight,
            cwnd_after=cut,
        )
        self.inflight = cut
        self.velocity = 1.0


class FluidVivace(FluidFlow):
    """PCC Vivace as a fluid: paired monitor intervals probing r(1±ε).

    Utility, probe schedule, and the gradient-step rule come from
    :mod:`repro.cc.laws.vivace`.  The paper does not say which Vivace
    variant it ran; its Figure 7 result (a disproportionately *large*
    share against CUBIC when Vivace flows are few) matches Vivace-Loss
    (``b = 0``), since the latency-sensitive variant concedes to
    buffer-filling competitors by design (Vivace §3), so the law's
    :data:`~repro.cc.laws.vivace.LATENCY_COEFF` is 0.
    """

    name = "vivace"
    loss_based = False

    def __init__(
        self,
        flow_id: int,
        rtt: float,
        start_time: float = 0.0,
        mss: int = 1500,
    ) -> None:
        super().__init__(flow_id, rtt, start_time, mss)
        self.rate = vivace_laws.INITIAL_RATE
        self._mi_phase = 0
        self._mi_start: Optional[float] = None
        self._mi_end = 0.0
        self._mi_delivered = 0.0
        self._mi_lost = 0.0
        self._mi_qd_start = 0.0
        self._last_qd = 0.0
        self._pair: List[float] = []
        self._amplifier = 1.0
        self._last_direction = 0

    def utility(
        self, rate: float, rtt_gradient: float, loss_rate: float
    ) -> float:
        """Vivace utility, rate in bytes/s scored in Mbps (NSDI'18 form)."""
        return float(
            mathops.vivace_utility(
                rate,
                rtt_gradient,
                loss_rate,
                vivace_laws.LATENCY_COEFF,
                vivace_laws.LOSS_COEFF,
            )
        )

    def _probe_rate(self) -> float:
        return vivace_laws.probe_rate(self.rate, self._mi_phase)

    def tick(self, ctx: TickContext) -> None:
        now = ctx.now
        self._last_rtt_measured = ctx.rtt_measured
        if self._mi_start is None:
            self._begin_mi(now, ctx)
        self._mi_delivered += ctx.throughput * ctx.dt
        self._last_qd = ctx.queue_delay
        if now >= self._mi_end:
            self._finish_mi(now, ctx)
        self.inflight = max(
            self._probe_rate() * ctx.rtt_measured, self.min_inflight
        )

    def on_drop(self, now: float, dropped_bytes: float) -> None:
        self._mi_lost += dropped_bytes

    def _begin_mi(self, now: float, ctx: TickContext) -> None:
        self._mi_start = now
        self._mi_end = now + max(ctx.rtt_measured, 4 * ctx.dt)
        self._mi_delivered = 0.0
        self._mi_lost = 0.0
        self._mi_qd_start = ctx.queue_delay

    def _finish_mi(self, now: float, ctx: TickContext) -> None:
        assert self._mi_start is not None
        elapsed = max(now - self._mi_start, 1e-6)
        rtt_gradient = (self._last_qd - self._mi_qd_start) / elapsed
        self._pair.append(
            float(
                mathops.vivace_score(
                    elapsed,
                    self._mi_delivered,
                    self._mi_lost,
                    rtt_gradient,
                    vivace_laws.LATENCY_COEFF,
                    vivace_laws.LOSS_COEFF,
                )
            )
        )
        if self._mi_phase == 0:
            self._mi_phase = 1
        else:
            self._mi_phase = 0
            self._apply_step()
            self._pair = []
        self._begin_mi(now, ctx)

    def _apply_step(self) -> None:
        if len(self._pair) != 2:
            return
        u_plus, u_minus = self._pair
        self.rate, direction, self._amplifier = vivace_laws.gradient_step(
            self.rate, u_plus, u_minus, self._amplifier, self._last_direction
        )
        self._last_direction = direction


def make_fluid_flow(name: str, **kwargs: object) -> FluidFlow:
    """Instantiate a fluid flow by congestion-control name.

    Resolution goes through the canonical algorithm table
    (:mod:`repro.cc.laws.registry`), so the fluid substrate can never
    drift from the packet one.
    """
    key = name.lower()
    spec = laws_registry.ALGORITHMS.get(key)
    if spec is None or spec.fluid is None:
        raise KeyError(
            f"unknown fluid congestion control {name!r}; "
            f"available: {available_fluid_algorithms()}"
        )
    return laws_registry.fluid_class(key)(**kwargs)


def available_fluid_algorithms() -> List[str]:
    """Names of all fluid congestion-control dynamics."""
    return [
        name
        for name in laws_registry.canonical_names()
        if laws_registry.ALGORITHMS[name].fluid is not None
    ]
