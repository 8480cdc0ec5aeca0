"""PCC Vivace control law (Dong et al., NSDI 2018).

Vivace is rate-based online learning: time is sliced into monitor
intervals (MIs), each MI measures the utility

    U(x) = x^0.9 − b · x · max(0, dRTT/dt) − c · x · L

with ``x`` the achieved rate in Mbps, ``L`` the observed loss rate.
Paired MIs at rates ``r(1+ε)`` and ``r(1−ε)`` estimate the utility
gradient, and the rate moves in the gradient's direction with a
confidence-amplified step.

Vivace comes in two flavours: Vivace-Loss (``b = 0``) and
Vivace-Latency (``b = 900``); the latency-sensitive variant
deliberately concedes to buffer-filling competitors (Vivace §3).  The
IMC paper's Figure 7 shows "PCC Vivace" claiming a disproportionately
*large* share against CUBIC when its flows are few — the behaviour of
Vivace-Loss — so :data:`LATENCY_COEFF` is 0 and Vivace-Latency is not
run here.  The utility functions still take ``b`` and ``c``, fed
:data:`LATENCY_COEFF` and :data:`LOSS_COEFF`, so the ``b``-term is
computed (as 0) on every path.
"""

from __future__ import annotations

from typing import Tuple

#: Utility exponent on throughput.
THROUGHPUT_EXPONENT = 0.9

#: Latency-gradient penalty coefficient ``b`` (Vivace-Loss; Vivace-Latency
#: would be 900).
LATENCY_COEFF = 0.0

#: Loss penalty coefficient ``c``.
LOSS_COEFF = 11.35

#: Rate perturbation for gradient probing.
EPSILON = 0.05

#: Maximum confidence amplifier (consecutive same-direction doublings).
MAX_AMPLIFIER = 8.0

#: Floor on the sending rate, bytes/second (≈0.12 Mbps).
MIN_RATE = 15_000.0

#: Initial sending rate, bytes/second (1 Mbps).
INITIAL_RATE = 125_000.0


def utility(
    rate: float, rtt_gradient: float, loss_rate: float, b: float, c: float
) -> float:
    """Vivace's utility for a rate in bytes/s (scored in Mbps units),
    with latency and loss coefficients ``b`` and ``c``."""
    x_mbps = rate * 8.0 / 1e6
    if x_mbps <= 0:
        return 0.0
    return (
        x_mbps ** THROUGHPUT_EXPONENT
        - b * x_mbps * max(0.0, rtt_gradient)
        - c * x_mbps * loss_rate
    )


def probe_rate(rate: float, phase: int) -> float:
    """The paired-probe rate: ``r(1+ε)`` in phase 0, ``r(1−ε)`` in phase 1.

    The pair stays distinct even at the rate floor, or the gradient
    degenerates and the flow can never climb back up.
    """
    factor = 1.0 + EPSILON if phase == 0 else 1.0 - EPSILON
    return rate * factor


def score_interval(
    elapsed: float,
    delivered_bytes: float,
    lost_bytes: float,
    rtt_gradient: float,
    b: float,
    c: float,
) -> float:
    """Utility of one finished monitor interval (:func:`utility`)."""
    elapsed = max(elapsed, 1e-6)
    achieved = delivered_bytes / elapsed
    total = delivered_bytes + lost_bytes
    loss_rate = lost_bytes / total if total > 0 else 0.0
    return utility(achieved, rtt_gradient, loss_rate, b, c)


def gradient_step(
    rate: float,
    u_plus: float,
    u_minus: float,
    amplifier: float,
    last_direction: int,
) -> Tuple[float, int, float]:
    """One rate update from a scored probe pair.

    Returns ``(new_rate, direction, new_amplifier)``.  Equal utilities
    carry no gradient signal: the rate holds and the confidence resets
    (``direction`` 0).  A direction consistent with the previous step
    doubles the confidence amplifier, capped at :data:`MAX_AMPLIFIER`;
    a flip resets it.  The rate never falls below :data:`MIN_RATE`.
    """
    if u_plus == u_minus:
        return rate, 0, 1.0
    direction = 1 if u_plus > u_minus else -1
    if direction == last_direction:
        amplifier = min(amplifier * 2.0, MAX_AMPLIFIER)
    else:
        amplifier = 1.0
    new_rate = max(
        rate + direction * EPSILON * amplifier * rate, MIN_RATE
    )
    return new_rate, direction, amplifier
