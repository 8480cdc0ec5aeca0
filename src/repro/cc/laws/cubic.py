"""CUBIC control law (RFC 8312 / Linux ``tcp_cubic.c`` defaults).

The window growth curve is the paper's Equation (1)::

    w(t) = C_CUBIC * (t - K)^3 + W_max

with ``K = cbrt(W_max * (1 - BETA_CUBIC) / C_CUBIC)`` so the curve
plateaus exactly at the pre-loss maximum.  All windows here are in
*segments* — CUBIC's native unit — and both substrates evaluate these
same functions: the packet adapter per ACK, the fluid adapter per tick.

What matters for the paper's model is the 0.7 backoff: CUBIC's minimum
buffer occupancy after a loss is what bloats BBR's RTT_min estimate
(Equations 9–12).
"""

from __future__ import annotations

from typing import Optional, Tuple

#: CUBIC scaling constant (units: segments / second^3).
C_CUBIC = 0.4

#: Multiplicative decrease: cwnd drops *to* BETA_CUBIC × W_max.
BETA_CUBIC = 0.7


def k_from_w_max(w_max: float) -> float:
    """Epoch duration ``K`` until the curve regains ``w_max`` (seconds)."""
    return (w_max * (1.0 - BETA_CUBIC) / C_CUBIC) ** (1.0 / 3.0)


def window(t: float, k: float, w_max: float) -> float:
    """Equation (1): target window in segments, ``t`` s into the epoch."""
    return C_CUBIC * (t - k) ** 3 + w_max


def begin_epoch(
    cwnd_segments: float, w_max: Optional[float]
) -> Tuple[float, float]:
    """Start a growth epoch; returns the ``(w_max, k)`` pair to use.

    When there was no prior loss — or the window already grew past the
    old maximum — the curve is anchored at the current window with
    ``K = 0``; otherwise it aims at the recorded ``w_max``.
    """
    if w_max is None or w_max < cwnd_segments:
        return cwnd_segments, 0.0
    return w_max, k_from_w_max(w_max)


def reduce_w_max(cwnd_segments: float, w_max: Optional[float]) -> float:
    """New ``W_max`` after a congestion event at ``cwnd_segments``.

    Fast convergence (Linux's default, the one variant run here): a flow
    whose share is still shrinking (loss below the previous maximum)
    remembers *less* than it had, releasing bandwidth to newer flows
    faster.
    """
    if w_max is not None and cwnd_segments < w_max:
        return cwnd_segments * (2.0 - BETA_CUBIC) / 2.0
    return cwnd_segments


def reno_emulation_window(w_max: float, t: float, rtt: float) -> float:
    """RFC 8312 §4.2 TCP-friendly region: Reno's average window at ``t``.

    CUBIC never grows slower than a Reno flow started from the same
    backoff, keeping it competitive in short-RTT / small-BDP regimes.
    """
    return w_max * BETA_CUBIC + (
        3.0 * (1.0 - BETA_CUBIC) / (1.0 + BETA_CUBIC)
    ) * (t / max(rtt, 1e-9))
