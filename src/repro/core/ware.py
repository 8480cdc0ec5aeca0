"""The Ware et al. (IMC 2019) model — the baseline the paper improves on.

Equations (2)–(4) of the paper::

    BBR_frac   = (1 − p) · (d − Probe_time) / d            (2)
    p          = 1/2 − 1/(2X) − 4N/q                        (3)
    Probe_time = (q/c + 0.2 + l) · (d/10)                   (4)

``p`` is the competing CUBIC flows' aggregate fraction of the bottleneck
bandwidth, ``X`` the buffer size in BDP, ``N`` the number of BBR flows,
``q`` the buffer size in packets, ``l`` the base RTT (seconds), ``d`` the
competition duration (seconds), and ``q/c`` the time to drain a full
buffer.  The model predicts that BBR flows collectively take a *fixed*
share regardless of how many CUBIC flows they face — §2.2 explains why its
always-full-buffer assumptions make it inaccurate for shallow and
moderately sized buffers (≥30% error, Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scenario.spec import BottleneckSpec


@dataclass(frozen=True)
class WarePrediction:
    """Ware et al. prediction for one network configuration."""

    #: Aggregate BBR fraction of the bottleneck bandwidth, in [0, 1].
    bbr_fraction: float
    #: CUBIC flows' aggregate fraction ``p`` before the ProbeRTT correction.
    cubic_fraction: float
    #: Fraction of the experiment spent ProbeRTT-degraded.
    probe_time_fraction: float
    #: Aggregate BBR bandwidth, bytes/second.
    bbr_bandwidth: float


def ware_prediction(
    link: BottleneckSpec,
    n_bbr: int = 1,
    duration: float = 120.0,
) -> WarePrediction:
    """Evaluate the Ware et al. model (Equations 2–4).

    Args:
        link: Bottleneck configuration.
        n_bbr: Number of competing BBR flows (``N``).
        duration: Flow duration ``d`` in seconds (the paper uses 2-minute
            flows).

    Returns:
        The predicted aggregate BBR share.  Fractions are clamped to
        [0, 1]: the raw formula can go negative for tiny buffers (where
        4N/q dominates), which is one of the regimes it mispredicts.
    """
    if n_bbr < 1:
        raise ValueError(f"n_bbr must be >= 1, got {n_bbr}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")

    x = link.buffer_bdp
    q_packets = link.buffer_packets
    # Equation (3): CUBIC's aggregate share.
    p = 0.5 - 1.0 / (2.0 * x) - 4.0 * n_bbr / q_packets
    p = min(max(p, 0.0), 1.0)

    # Equation (4): time lost to ProbeRTT per experiment.  q/c is the time
    # to drain a full buffer; BBR probes once every 10 seconds, hence d/10
    # probe episodes.
    drain_time = link.buffer_bytes / link.capacity
    probe_time = (drain_time + 0.2 + link.rtt) * (duration / 10.0)
    probe_fraction = min(max(probe_time / duration, 0.0), 1.0)

    # Equation (2).
    bbr_fraction = (1.0 - p) * (1.0 - probe_fraction)
    bbr_fraction = min(max(bbr_fraction, 0.0), 1.0)
    return WarePrediction(
        bbr_fraction=bbr_fraction,
        cubic_fraction=p,
        probe_time_fraction=probe_fraction,
        bbr_bandwidth=bbr_fraction * link.capacity,
    )
