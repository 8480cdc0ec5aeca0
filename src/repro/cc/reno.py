"""NewReno per-ACK adapter over :mod:`repro.cc.laws.reno`.

The classic AIMD baseline: slow start to ``ssthresh``, additive
increase of one segment per RTT in congestion avoidance, multiplicative
decrease on loss.  Included because the paper frames the CUBIC→BBR
transition against the historical NewReno→CUBIC transition, and it is a
useful sanity baseline for the simulator (its throughput follows the
well-known ``MSS/(RTT·√p)`` law, which the test suite checks).
"""

from __future__ import annotations

from typing import Optional

from repro.cc.base import CongestionControl, register
from repro.cc.laws import reno as laws
from repro.cc.laws.base import CongestionEventGate, smooth_rtt
from repro.cc.signals import LossEvent, RateSample


@register("reno")
class Reno(CongestionControl):
    """NewReno-style AIMD controller (ack-clocked, no pacing)."""

    name = "reno"
    loss_based = True

    def __init__(self, mss: int = 1500) -> None:
        super().__init__(mss=mss)
        self.ssthresh = float("inf")
        self._srtt: Optional[float] = None
        self._loss_gate = CongestionEventGate()

    def on_ack(self, sample: RateSample) -> None:
        self._srtt = smooth_rtt(self._srtt, sample.rtt)
        if self.cwnd < self.ssthresh:
            # Slow start: one segment per ACKed segment.
            self.cwnd += sample.acked_bytes
        else:
            # Congestion avoidance: one segment per RTT.
            self.cwnd += laws.ai_increment(
                self.mss, sample.acked_bytes, self.cwnd
            )

    def on_loss(self, event: LossEvent) -> None:
        # Treat all losses within one RTT as a single congestion event.
        if not self._loss_gate.admit(event.now, self._srtt):
            return
        self.emit(
            "cc.backoff",
            event.now,
            kind="multiplicative_decrease",
            beta=laws.BETA,
            cwnd_before=self.cwnd,
            cwnd_after=self.cwnd * laws.BETA,
        )
        self.cwnd = laws.md_window(self.cwnd)
        self.clamp_cwnd()
        self.ssthresh = self.cwnd
