"""PCC Vivace per-ACK adapter over :mod:`repro.cc.laws.vivace`.

The utility function, probe-pair schedule, and gradient-step rule live
in the law module (shared with
:class:`repro.fluidsim.flows.FluidVivace`); this class slices the ACK
stream into monitor intervals of one smoothed RTT, measures each MI's
achieved rate / loss / RTT slope, and applies the scored gradient to
the pacing rate.  cwnd is kept generously above the pacer's reach so
the rate, not the window, is the binding control.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cc.base import CongestionControl, register
from repro.cc.laws import vivace as laws
from repro.cc.laws.base import smooth_rtt
from repro.cc.laws.vivace import (  # noqa: F401 (canonical law re-exports)
    EPSILON,
    LATENCY_COEFF,
    LOSS_COEFF,
    MAX_AMPLIFIER,
    MIN_RATE,
    THROUGHPUT_EXPONENT,
)
from repro.cc.signals import LossEvent, RateSample


@register("vivace")
class Vivace(CongestionControl):
    """PCC Vivace controller (rate-paced; cwnd used only as a safety cap)."""

    name = "vivace"
    loss_based = False  # Loss enters the utility, not a window cut.

    def __init__(self, mss: int = 1500):
        super().__init__(mss=mss)
        self.rate = laws.INITIAL_RATE  # bytes/second
        self.pacing_rate = laws.INITIAL_RATE
        self._srtt: Optional[float] = None

        # Monitor-interval state: phase 0 probes r(1+ε), phase 1 probes
        # r(1−ε), then the pair is scored and the base rate updated.
        self._mi_phase = 0
        self._mi_start: Optional[float] = None
        self._mi_end: Optional[float] = None
        self._mi_acked = 0
        self._mi_lost = 0
        self._mi_rtts: List[Tuple[float, float]] = []
        self._pair_utilities: List[float] = []

        self._amplifier = 1.0
        self._last_direction = 0

    # -- utility ----------------------------------------------------------

    def utility(
        self, rate: float, rtt_gradient: float, loss_rate: float
    ) -> float:
        """Vivace's utility for a rate in bytes/s (scored in Mbps units)."""
        return laws.utility(
            rate, rtt_gradient, loss_rate, laws.LATENCY_COEFF, laws.LOSS_COEFF
        )

    def _probe_rate(self) -> float:
        return laws.probe_rate(self.rate, self._mi_phase)

    # -- CongestionControl interface -----------------------------------------

    def on_ack(self, sample: RateSample) -> None:
        now = sample.now
        self._srtt = smooth_rtt(self._srtt, sample.rtt)
        if self._mi_start is None:
            self._begin_mi(now)
        self._mi_acked += sample.acked_bytes
        self._mi_rtts.append((now, sample.rtt))

        if self._mi_end is not None and now >= self._mi_end:
            self._finish_mi(now)

        # Keep a generous window so the pacer, not cwnd, is the limit.
        self.cwnd = max(
            2.0 * self.pacing_rate * (self._srtt or 0.05), self.min_cwnd
        )

    def on_loss(self, event: LossEvent) -> None:
        self._mi_lost += event.lost_packets

    # -- monitor intervals ----------------------------------------------------

    def _begin_mi(self, now: float) -> None:
        duration = max(self._srtt or 0.05, 0.01)
        self._mi_start = now
        self._mi_end = now + duration
        self._mi_acked = 0
        self._mi_lost = 0
        self._mi_rtts = []
        self.pacing_rate = max(self._probe_rate(), MIN_RATE)

    def _finish_mi(self, now: float) -> None:
        assert self._mi_start is not None
        elapsed = max(now - self._mi_start, 1e-6)
        rtt_gradient = self._rtt_gradient(elapsed)
        self._pair_utilities.append(
            laws.score_interval(
                elapsed,
                self._mi_acked,
                self._mi_lost * self.mss,
                rtt_gradient,
                laws.LATENCY_COEFF,
                laws.LOSS_COEFF,
            )
        )

        if self._mi_phase == 0:
            self._mi_phase = 1
        else:
            self._mi_phase = 0
            self._apply_gradient_step(now)
            self._pair_utilities = []
        self._begin_mi(now)

    def _rtt_gradient(self, elapsed: float) -> float:
        """Slope of RTT over the MI (s/s), from first/last halves' means."""
        samples = self._mi_rtts
        if len(samples) < 4:
            return 0.0
        half = len(samples) // 2
        first = sum(rtt for _, rtt in samples[:half]) / half
        second = sum(rtt for _, rtt in samples[half:]) / (
            len(samples) - half
        )
        return (second - first) / elapsed

    def _apply_gradient_step(self, now: float) -> None:
        if len(self._pair_utilities) != 2:
            return
        u_plus, u_minus = self._pair_utilities
        rate_before = self.rate
        self.rate, direction, self._amplifier = laws.gradient_step(
            self.rate, u_plus, u_minus, self._amplifier, self._last_direction
        )
        self._last_direction = direction
        if direction == 0:
            # No gradient signal: the rate held and the confidence reset.
            return
        self.emit(
            "cc.rate_step",
            now,
            direction=direction,
            amplifier=self._amplifier,
            rate_before=rate_before,
            rate_after=self.rate,
        )
