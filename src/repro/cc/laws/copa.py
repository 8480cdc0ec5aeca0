"""Copa control law (Arun & Balakrishnan, NSDI 2018).

Copa targets a sending rate of ``1 / (δ · d_q)`` packets per second,
where ``d_q`` is the queuing delay measured against the RTT_min
estimate.  The window moves toward the target with a velocity parameter
that doubles when ``VELOCITY_DOUBLE_ROUNDS`` successive per-RTT
adjustments agree in direction, and resets to 1 the moment the
direction flips.

The paper's Figure 7 finds that Copa (in its default mode) obtains
*lower* than fair-share throughput against CUBIC for every distribution
— it lacks the "disproportionate share when few" property that creates
a mixed Nash Equilibrium.  Both adapters therefore run the default mode
only, δ fixed at :data:`DELTA`; Copa's *competitive mode* (detect
non-Copa competitors, shrink δ toward 0.04) is not modelled.
"""

from __future__ import annotations

#: Delta: trade-off between delay and throughput (default mode).
DELTA = 0.5

#: RTT_min filter window, seconds.
RTT_MIN_WINDOW = 10.0

#: Multiplicative backoff on loss (Copa paper §2: AIMD-style halving).
LOSS_BETA = 0.5

#: Consecutive same-direction per-RTT updates before velocity doubles.
VELOCITY_DOUBLE_ROUNDS = 3

#: Upper bound on the velocity parameter.
VELOCITY_CAP = 1e6


def target_rate(mss: float, queuing_delay: float) -> float:
    """Copa's target rate in bytes/s; +inf when the queue looks empty."""
    if queuing_delay <= 1e-9:
        return float("inf")
    return mss / (DELTA * queuing_delay)


def double_velocity(velocity: float) -> float:
    """One velocity doubling, capped at :data:`VELOCITY_CAP`."""
    return min(velocity * 2.0, VELOCITY_CAP)
