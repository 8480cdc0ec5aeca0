"""CUBIC per-ACK adapter over :mod:`repro.cc.laws.cubic`.

The window curve, K formula, fast-convergence rule, and TCP-friendly
region live in the law module (shared with
:class:`repro.fluidsim.flows.FluidCubic`); this class evaluates them
per ACK with Linux's one-RTT lookahead and per-congestion-event loss
gating, as in ``tcp_cubic.c``.
"""

from __future__ import annotations

from typing import Optional

from repro.cc.base import CongestionControl, register
from repro.cc.laws import cubic as laws
from repro.cc.laws.base import CongestionEventGate, smooth_rtt
from repro.cc.laws.cubic import (  # noqa: F401 (canonical law re-exports)
    BETA_CUBIC,
    C_CUBIC,
)
from repro.cc.signals import LossEvent, RateSample


@register("cubic")
class Cubic(CongestionControl):
    """CUBIC controller (ack-clocked, no pacing).

    Args:
        mss: Segment size in bytes.
        fast_convergence: Enable Linux's fast-convergence heuristic.
        tcp_friendly: Enable the Reno-emulation lower bound of RFC 8312.
    """

    name = "cubic"
    loss_based = True

    def __init__(
        self,
        mss: int = 1500,
        fast_convergence: bool = True,
        tcp_friendly: bool = True,
    ) -> None:
        super().__init__(mss=mss)
        self.fast_convergence = fast_convergence
        self.tcp_friendly = tcp_friendly
        self.ssthresh = float("inf")
        self.w_max_segments: Optional[float] = None
        self._k = 0.0
        self._epoch_start: Optional[float] = None
        self._srtt: Optional[float] = None
        self._loss_gate = CongestionEventGate()
        self._w_est_segments = 0.0  # Reno-emulation window.
        self._epoch_acked = 0.0

    # -- helpers -----------------------------------------------------------

    @property
    def cwnd_segments(self) -> float:
        """Current window in segments (CUBIC's native unit)."""
        return self.cwnd / self.mss

    # -- CongestionControl interface ----------------------------------------

    def on_ack(self, sample: RateSample) -> None:
        self._srtt = smooth_rtt(self._srtt, sample.rtt)
        if self.cwnd < self.ssthresh:
            self.cwnd += sample.acked_bytes
            return
        self._congestion_avoidance(sample)

    def _congestion_avoidance(self, sample: RateSample) -> None:
        now = sample.now
        rtt = self._srtt if self._srtt is not None else sample.rtt
        if self._epoch_start is None:
            self._epoch_start = now
            self._epoch_acked = 0.0
            self.w_max_segments, self._k = laws.begin_epoch(
                self.cwnd_segments, self.w_max_segments
            )
            self._w_est_segments = self.cwnd_segments

        # Linux evaluates the target one RTT ahead for responsiveness.
        t = now - self._epoch_start + rtt
        target = laws.window(t, self._k, self.w_max_segments)
        mss = self.mss
        cwnd_seg = self.cwnd / mss
        acked_seg = sample.acked_bytes / mss
        if target > cwnd_seg:
            increment = (target - cwnd_seg) / cwnd_seg
        else:
            increment = 0.01 / cwnd_seg  # Minimal probing growth.
        self.cwnd += increment * acked_seg * mss

        if self.tcp_friendly:
            # RFC 8312 §4.2: emulate Reno's average growth to stay at least
            # as aggressive as standard TCP in short-RTT/small-BDP regimes.
            self._epoch_acked += acked_seg
            w_est = laws.reno_emulation_window(self.w_max_segments, t, rtt)
            if w_est > self.cwnd / mss:
                self.cwnd = w_est * mss

    def on_loss(self, event: LossEvent) -> None:
        # Multiple drops from one buffer overflow arrive within one RTT and
        # constitute a single congestion event.
        if not self._loss_gate.admit(event.now, self._srtt):
            return
        cwnd_seg = self.cwnd_segments
        self.emit(
            "cc.backoff",
            event.now,
            kind="multiplicative_decrease",
            beta=BETA_CUBIC,
            cwnd_before=self.cwnd,
            cwnd_after=cwnd_seg * BETA_CUBIC * self.mss,
        )
        self.w_max_segments = laws.reduce_w_max(
            cwnd_seg, self.w_max_segments, self.fast_convergence
        )
        self._k = laws.k_from_w_max(self.w_max_segments)
        self.cwnd = cwnd_seg * BETA_CUBIC * self.mss
        self.clamp_cwnd()
        self.ssthresh = self.cwnd
        self._epoch_start = None
