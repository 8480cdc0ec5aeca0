"""Copa per-ACK adapter over :mod:`repro.cc.laws.copa`.

The delta/target-rate law and velocity rules live in the law module
(shared with :class:`repro.fluidsim.flows.FluidCopa`); this class
measures queuing delay as ``RTT_standing − RTT_min`` from per-ACK
samples, moves the window toward the target with the velocity
parameter, and paces at ``2 × cwnd / RTT_standing``.  It runs Copa's
default mode, δ fixed at :data:`~repro.cc.laws.copa.DELTA`; see the law
module for why competitive mode is not modelled.
"""

from __future__ import annotations

from typing import Optional

from repro.cc.base import CongestionControl, register
from repro.cc.laws import copa as laws
from repro.cc.laws.base import CongestionEventGate, smooth_rtt
from repro.cc.laws.copa import RTT_MIN_WINDOW
from repro.cc.signals import LossEvent, RateSample
from repro.util.filters import WindowedMin


@register("copa")
class Copa(CongestionControl):
    """Copa controller (paced at 2×cwnd/RTT_standing)."""

    name = "copa"
    loss_based = True  # Halves its window on loss, per the Copa paper.

    def __init__(self, mss: int = 1500) -> None:
        super().__init__(mss=mss)
        self._rtt_min_filter = WindowedMin(RTT_MIN_WINDOW)
        self._rtt_standing_filter: Optional[WindowedMin] = None
        self._srtt: Optional[float] = None

        self.velocity = 1.0
        self._direction = 0  # +1 opening, -1 closing.
        self._same_direction_count = 0
        self._last_update_time = 0.0
        self._loss_gate = CongestionEventGate()

    # -- CongestionControl interface ------------------------------------------

    def on_ack(self, sample: RateSample) -> None:
        now = sample.now
        rtt = sample.rtt
        self._srtt = smooth_rtt(self._srtt, rtt)
        rtt_min = self._rtt_min_filter.update(now, rtt)

        # RTT_standing: min RTT over the most recent srtt/2.
        if self._rtt_standing_filter is None or (
            abs(self._rtt_standing_filter.window - self._srtt / 2)
            > 0.25 * self._srtt
        ):
            window = max(self._srtt / 2, 1e-4)
            fresh = WindowedMin(window)
            fresh.update(now, rtt)
            self._rtt_standing_filter = fresh
        rtt_standing = self._rtt_standing_filter.update(now, rtt)

        queuing_delay = max(rtt_standing - rtt_min, 0.0)
        target_rate = laws.target_rate(self.mss, queuing_delay)
        current_rate = self.cwnd / max(rtt_standing, 1e-9)

        self._update_velocity(now)
        step = (
            self.velocity
            * self.mss
            * sample.acked_bytes
            / (laws.DELTA * self.cwnd)
        )
        if current_rate <= target_rate:
            self.cwnd += step
            new_direction = 1
        else:
            self.cwnd -= step
            new_direction = -1
        self.clamp_cwnd()

        if new_direction != self._direction:
            self.velocity = 1.0
            self._same_direction_count = 0
        self._direction = new_direction
        self.pacing_rate = 2.0 * self.cwnd / max(rtt_standing, 1e-9)

    def _update_velocity(self, now: float) -> None:
        """Double velocity once per RTT while direction is consistent."""
        srtt = self._srtt if self._srtt is not None else 0.0
        if now - self._last_update_time < srtt:
            return
        self._last_update_time = now
        if self._direction != 0:
            self._same_direction_count += 1
            if self._same_direction_count >= laws.VELOCITY_DOUBLE_ROUNDS:
                self.velocity = laws.double_velocity(self.velocity)
        else:
            self._same_direction_count = 0

    def on_loss(self, event: LossEvent) -> None:
        # Copa reduces its window on loss like an AIMD flow (Copa paper §2).
        if not self._loss_gate.admit(event.now, self._srtt):
            return
        self.emit(
            "cc.backoff",
            event.now,
            kind="multiplicative_decrease",
            beta=laws.LOSS_BETA,
            cwnd_before=self.cwnd,
            cwnd_after=self.cwnd * laws.LOSS_BETA,
        )
        self.cwnd *= laws.LOSS_BETA
        self.clamp_cwnd()
        self.velocity = 1.0
        self._direction = 0
