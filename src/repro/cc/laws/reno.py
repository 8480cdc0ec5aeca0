"""NewReno control law: classic AIMD.

Slow start doubles the window each RTT, congestion avoidance adds one
segment per RTT, and a loss event multiplies the window by ``BETA``.
The resulting throughput follows the ``MSS/(RTT·√p)`` law the test
suite checks.
"""

from __future__ import annotations

#: Multiplicative-decrease factor: cwnd shrinks *to* BETA × cwnd on loss.
BETA = 0.5


def ai_increment(mss: float, acked_bytes: float, cwnd: float) -> float:
    """Congestion-avoidance growth for ``acked_bytes`` of progress.

    Integrates to one segment per RTT when a full window is ACKed.
    """
    return mss * acked_bytes / cwnd


def md_window(cwnd: float) -> float:
    """Multiplicative decrease: the window after one congestion event."""
    return cwnd * BETA
