"""BBR (v1) per-ACK adapter over :mod:`repro.cc.laws.bbr`.

The four-state machine, gain tables, and estimator kernels live in the
law module (shared with the fluid-model adapter
:class:`repro.fluidsim.flows.FluidBBR`); this class wires them to the
packet simulator's per-ACK :class:`~repro.cc.signals.RateSample` stream.

The bandwidth estimate is a windowed max over the last 10 packet-timed
rounds of delivery-rate samples; RTprop is a windowed min over 10
seconds.  In-flight data is capped at ``cwnd_gain (=2) × estimated
BDP`` — the property the paper's model depends on (assumption 2 of
§2.3).  BBRv1 is loss-agnostic (assumption 4): ``on_loss`` does
nothing.
"""

from __future__ import annotations

from repro.cc.base import CongestionControl, register
from repro.cc.laws import bbr as laws
from repro.cc.laws.bbr import (  # noqa: F401 (canonical law re-exports)
    BTLBW_FILTER_ROUNDS,
    CWND_GAIN,
    DRAIN,
    GAIN_CYCLE,
    HIGH_GAIN,
    PROBE_BW,
    PROBE_RTT,
    PROBE_RTT_CWND_SEGMENTS,
    PROBE_RTT_DURATION,
    RTPROP_FILTER_LEN,
    STARTUP,
)
from repro.cc.signals import LossEvent, RateSample
from repro.util.filters import WindowedMax


@register("bbr")
class BBRv1(CongestionControl):
    """BBR v1 controller (paced; cwnd-capped at 2×BDP)."""

    name = "bbr"
    loss_based = False

    def __init__(self, mss: int = 1500) -> None:
        super().__init__(mss=mss)
        self.state = STARTUP
        self.pacing_gain = HIGH_GAIN
        self.cwnd_gain = HIGH_GAIN

        self._btl_bw_filter = WindowedMax(BTLBW_FILTER_ROUNDS)
        self._rtprop = laws.RtPropTracker()
        self._rounds = laws.RoundCounter()
        self._full_pipe = laws.FullPipeDetector()
        self._cycler = laws.GainCycler()

        # PROBE_RTT bookkeeping.
        self._probe_rtt_done_stamp: float | None = None
        self._probe_rtt_round_done = False
        self._prior_cwnd = self.cwnd

        self.pacing_rate = None  # Unpaced until the first bandwidth sample.

    # -- derived estimates --------------------------------------------------

    @property
    def btl_bw(self) -> float:
        """Current bottleneck-bandwidth estimate in bytes/second."""
        value = self._btl_bw_filter.get()
        return value if value is not None else 0.0

    @property
    def rtprop(self) -> float | None:
        """Current RTprop estimate in seconds; None before any sample."""
        return self._rtprop.rtprop

    @property
    def full_pipe(self) -> bool:
        """True once STARTUP's bandwidth-plateau exit has fired."""
        return self._full_pipe.full

    def bdp(self, gain: float = 1.0) -> float:
        """``gain × btl_bw × RTprop`` in bytes; 0 before any estimates."""
        if self.rtprop is None:
            return 0.0
        return gain * self.btl_bw * self.rtprop

    # -- CongestionControl interface -----------------------------------------

    def on_ack(self, sample: RateSample) -> None:
        now = sample.now
        rounds = self._rounds
        rounds.update(sample.delivered, sample.delivered_at_send)
        # Both estimates are settled by these two updates; nothing below
        # moves them, so each is read once per ACK.
        btl_bw = self._update_btl_bw(sample)
        rtprop = self._rtprop.update(now, sample.rtt)

        if self.state == STARTUP:
            if rounds.round_start:
                self._full_pipe.update(btl_bw)
            if self._full_pipe.full:
                self._enter_drain(now)
        if self.state == DRAIN and sample.in_flight <= btl_bw * rtprop:
            self._enter_probe_bw(now)
        if self.state == PROBE_BW:
            self.pacing_gain = self._cycler.advance(now, rtprop)

        self._check_probe_rtt(now, sample)
        if btl_bw > 0:
            self.pacing_rate = self.pacing_gain * btl_bw
        self._set_cwnd(sample, self.cwnd_gain * btl_bw * rtprop)

    def on_loss(self, event: LossEvent) -> None:
        """BBRv1 is loss-agnostic: packet loss does not change the model."""

    # -- estimator updates ---------------------------------------------------

    def _update_btl_bw(self, sample: RateSample) -> float:
        """Feed the max filter one sample; returns the current estimate."""
        rate = sample.delivery_rate
        if rate > 0 and (not sample.is_app_limited or rate > self.btl_bw):
            return self._btl_bw_filter.update(self._rounds.count, rate)
        return self.btl_bw

    # -- state transitions ----------------------------------------------------

    def _enter_drain(self, now: float) -> None:
        self.emit_state(now, self.state, DRAIN)
        self.state = DRAIN
        self.pacing_gain = 1.0 / HIGH_GAIN
        self.cwnd_gain = HIGH_GAIN

    def _enter_probe_bw(self, now: float) -> None:
        self.emit_state(now, self.state, PROBE_BW)
        self.state = PROBE_BW
        self.cwnd_gain = CWND_GAIN
        self._cycler.reset(now)
        self.pacing_gain = self._cycler.gain

    def _check_probe_rtt(self, now: float, sample: RateSample) -> None:
        if self.state != PROBE_RTT and self._rtprop.expired:
            self._enter_probe_rtt(now)
        if self.state == PROBE_RTT:
            self._handle_probe_rtt(now, sample)

    def _enter_probe_rtt(self, now: float) -> None:
        self.emit_state(now, self.state, PROBE_RTT)
        self.state = PROBE_RTT
        self._prior_cwnd = max(self.cwnd, self._prior_cwnd)
        self.pacing_gain = 1.0
        self._probe_rtt_done_stamp = None
        self._probe_rtt_round_done = False

    def _handle_probe_rtt(self, now: float, sample: RateSample) -> None:
        probe_cwnd = PROBE_RTT_CWND_SEGMENTS * self.mss
        if (
            self._probe_rtt_done_stamp is None
            and sample.in_flight <= probe_cwnd
        ):
            # The queue contribution has drained; start the 200 ms dwell.
            self._probe_rtt_done_stamp = now + PROBE_RTT_DURATION
            self._probe_rtt_round_done = False
            self._rounds.next_delivered = sample.delivered
        elif self._probe_rtt_done_stamp is not None:
            if self._rounds.round_start:
                self._probe_rtt_round_done = True
            if (
                self._probe_rtt_round_done
                and now >= self._probe_rtt_done_stamp
            ):
                self._exit_probe_rtt(now)

    def _exit_probe_rtt(self, now: float) -> None:
        self._rtprop.stamp = now
        self.cwnd = max(self.cwnd, self._prior_cwnd)
        if self.full_pipe:
            self._enter_probe_bw(now)
        else:
            self.emit_state(now, self.state, STARTUP)
            self.state = STARTUP
            self.pacing_gain = HIGH_GAIN
            self.cwnd_gain = HIGH_GAIN

    # -- control outputs ------------------------------------------------------

    def _set_cwnd(self, sample: RateSample, target: float) -> None:
        """Move cwnd towards ``target``, ``cwnd_gain ×`` the estimated BDP."""
        if self.state == PROBE_RTT:
            self.cwnd = PROBE_RTT_CWND_SEGMENTS * self.mss
            return
        if target <= 0:
            return  # No estimates yet; keep the initial window.
        if self.cwnd < target:
            # Grow by at most the newly ACKed data per ACK (slow-start-like).
            self.cwnd = min(self.cwnd + sample.acked_bytes, target)
        else:
            self.cwnd = target
        self.clamp_cwnd()
