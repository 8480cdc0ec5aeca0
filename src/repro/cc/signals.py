"""Signals exchanged between a transport sender and its controller.

These are the only types congestion-control algorithms see: per-ACK
:class:`RateSample` records (in the style of Linux's delivery-rate
estimation) and :class:`LossEvent` notifications.  They live here, below
both :mod:`repro.cc` and :mod:`repro.sim`, so the algorithms do not depend
on any particular substrate — the packet-level simulator, the fluid
simulator, and unit tests all construct them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class RateSample:
    """A delivery-rate and RTT sample handed to the congestion controller.

    Attributes:
        rtt: The RTT measured by this ACK, in seconds.
        delivery_rate: Estimated delivery rate in bytes/second, or 0.0 when
            the sample interval was degenerate.
        delivered: Total bytes delivered on the connection so far.
        delivered_at_send: The connection's delivered counter when the
            ACKed packet was sent (used for packet-timed round counting).
        acked_bytes: Bytes newly acknowledged by this ACK.
        in_flight: Bytes still in flight after processing this ACK.
        is_app_limited: True if the sample was taken while the sender was
            application-limited (BBR ignores such samples for its max
            filter unless they increase the estimate).
        now: Simulation time at which the ACK was processed.
    """

    rtt: float
    delivery_rate: float
    delivered: int
    delivered_at_send: int
    acked_bytes: int
    in_flight: int
    is_app_limited: bool
    now: float


@dataclass
class LossEvent:
    """A congestion-loss notification delivered to the controller.

    ``lost_bytes`` counts bytes declared lost in this event; ``in_flight``
    is the in-flight count after removing them.  ``now`` is the detection
    time (not the drop time).
    """

    lost_bytes: int
    in_flight: int
    now: float
    lost_packets: int = field(default=1)
