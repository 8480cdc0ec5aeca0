"""The paper's basic 2-flow model (§2.3, Equations 5–20).

One CUBIC flow and one BBR flow share a drop-tail bottleneck of capacity
``C``, buffer ``B``, and common base RTT.  The chain of reasoning:

* BBR is cwnd-bound at ``2 × estimated BDP`` (Eq. 7), where its RTT
  estimate is bloated by CUBIC's *minimum* buffer occupancy — the packets
  CUBIC leaves in the buffer during BBR's ProbeRTT (Eq. 9).
* Consistency of that cap with a full link gives
  ``b_b + b_c = 2·b_cmin + C·RTT`` (Eq. 10); approximating the buffer as
  full (``b_b + b_c ≈ B``) pins ``b_cmin = (B − C·RTT)/2``.
* CUBIC's backoff behaviour ties ``b_cmin`` to 0.7 of its peak window
  (Eqs. 12–17), yielding one equation in BBR's buffer share ``b_b``
  (Eq. 18), a quadratic solved in closed form here (with a bracketing
  fallback).
* Bandwidths follow from Eqs. 19–20; with ``b_cmin = (B − C·RTT)/2`` they
  reduce to proportional buffer shares: ``λ_b = C · b_b / B``.

Validity: the model assumes ``B ≥ 1 BDP`` (assumptions 1–2) and
cwnd-limited BBR, which fails in ultra-deep buffers (≳100 BDP, §5 and
Figure 12).  Out-of-range inputs still produce numbers, but predictions
carry ``in_validity_range=False``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.scenario.spec import BottleneckSpec

#: CUBIC's multiplicative-decrease survival factor (backs off *to* 0.7).
CUBIC_BACKOFF = 0.7

#: Buffer depth (in BDP) beyond which BBR stops being cwnd-limited and the
#: model overestimates its throughput (§5, Figure 12).
DEEP_BUFFER_LIMIT_BDP = 100.0


@dataclass(frozen=True)
class ModelPrediction:
    """Solution of the 2-flow model for one configuration.

    All byte quantities are in bytes; bandwidths in bytes/second.
    """

    #: BBR's average buffer occupancy ``b_b``.
    bbr_buffer: float
    #: CUBIC's average buffer occupancy ``b_c = B − b_b``.
    cubic_buffer: float
    #: CUBIC's minimum buffer occupancy ``b_cmin`` (Eq. 10 + full buffer).
    cubic_min_buffer: float
    #: BBR's bandwidth ``λ_b``.
    bbr_bandwidth: float
    #: CUBIC's bandwidth ``λ_c``.
    cubic_bandwidth: float
    #: BBR's over-estimated RTT ``RTT⁺`` (Eq. 9), seconds.
    rtt_plus: float
    #: Whether the configuration satisfies the model's assumptions.
    in_validity_range: bool

    @property
    def bbr_fraction(self) -> float:
        """BBR's share of the link capacity, in [0, 1]."""
        total = self.bbr_bandwidth + self.cubic_bandwidth
        return self.bbr_bandwidth / total if total > 0 else 0.0


def solve_bbr_buffer_share(
    link: BottleneckSpec,
    backoff: float = CUBIC_BACKOFF,
    cwnd_gain: float = 2.0,
) -> float:
    """Solve Equation (18) for BBR's buffer occupancy ``b_b``.

    With ``h = b_cmin``, ``K = C·RTT`` and ``g = backoff · (1 + K/B)``,
    Eq. (18) multiplied through by ``(h + b_b)`` is the quadratic::

        g·b_b² + [h − g(B − h)]·b_b + h(h + K − gB) = 0

    The generalized ``backoff`` parameter supports the multi-flow bounds
    of §2.4 (0.7 for synchronized CUBIC flows, ``(N_c − 0.3)/N_c`` for
    perfectly de-synchronized ones).

    ``cwnd_gain`` generalizes assumption 2 (BBR holds ``cwnd_gain × BDP``
    in flight) along the lines discussed in §5: re-deriving Eq. (10) with
    cap ``γ`` gives ``b_b + b_c = (γ−1)·K + γ·b_cmin``, so the full-buffer
    approximation pins ``b_cmin = (B − (γ−1)·K)/γ``; the paper's model is
    the ``γ = 2`` case.  §5 notes the true in-flight level averages
    between 1 and 2 BDP, so sweeping γ quantifies the assumption's cost
    (``tests/test_two_flow.py::test_cwnd_gain_monotone``).

    Returns ``b_b`` clamped to ``[0, B]``.  When the buffer is too small
    for the premises (``B ≤ (γ−1)·BDP``), the full buffer is attributed
    to BBR (its empirical behaviour in shallow buffers: CUBIC starves).
    """
    if not 0 < backoff <= 1:
        raise ValueError(f"backoff must be in (0, 1], got {backoff}")
    if cwnd_gain <= 1.0:
        raise ValueError(
            f"cwnd_gain must exceed 1 (BBR must out-run the pipe), "
            f"got {cwnd_gain}"
        )
    b = link.buffer_bytes
    k = link.bdp_bytes
    if b <= (cwnd_gain - 1.0) * k:
        return b
    h = (b - (cwnd_gain - 1.0) * k) / cwnd_gain
    g = backoff * (1.0 + k / b)

    # Quadratic coefficients (a·x² + b·x + c).
    qa = g
    qb = h - g * (b - h)
    qc = h * (h + k - g * b)
    disc = qb * qb - 4.0 * qa * qc
    if disc >= 0:
        root = (-qb + math.sqrt(disc)) / (2.0 * qa)
        if 0.0 <= root <= b:
            return root
    # Fallback: bisection on f(b_b); f is increasing through its root.
    lo, hi = 0.0, b
    for _ in range(200):
        mid = (lo + hi) / 2.0
        f = h + h * k / (h + mid) - g * (b - mid)
        if f < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9 * b:
            break
    return (lo + hi) / 2.0


def predict_two_flow(
    link: BottleneckSpec, cwnd_gain: float = 2.0
) -> ModelPrediction:
    """Predict the bandwidth split of one CUBIC vs. one BBR flow (§2.3).

    ``cwnd_gain`` generalizes the 2×BDP in-flight assumption (see
    :func:`solve_bbr_buffer_share`); the paper's model is the default.
    """
    b = link.buffer_bytes
    k = link.bdp_bytes
    c = link.capacity
    in_range = 1.0 <= link.buffer_bdp <= DEEP_BUFFER_LIMIT_BDP

    bbr_buffer = solve_bbr_buffer_share(link, cwnd_gain=cwnd_gain)
    cubic_buffer = b - bbr_buffer
    b_cmin = max((b - (cwnd_gain - 1.0) * k) / cwnd_gain, 0.0)

    # Equations (19)–(20).  With the full-buffer b_cmin the denominator
    # of Eq. (19) equals B/C, so λ_c = C·b_c/B — bandwidth follows buffer
    # share, as assumption 3 implies.
    lambda_c = c * cubic_buffer / b
    lambda_c = min(max(lambda_c, 0.0), c)
    lambda_b = c - lambda_c
    return ModelPrediction(
        bbr_buffer=bbr_buffer,
        cubic_buffer=cubic_buffer,
        cubic_min_buffer=b_cmin,
        bbr_bandwidth=lambda_b,
        cubic_bandwidth=lambda_c,
        rtt_plus=link.rtt + b_cmin / c,
        in_validity_range=in_range,
    )
