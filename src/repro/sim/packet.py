"""Packet records for the packet-level simulator.

The sender implements delivery-rate estimation in the style used by Linux
TCP (and required by BBR): every data packet snapshots the connection's
``delivered`` counter when it is sent, and its ACK turns that snapshot
into a :class:`~repro.cc.signals.RateSample`.

:class:`RateSample` and :class:`LossEvent` are defined in
:mod:`repro.cc.signals` (they are the controller-facing interface) and
re-exported here for convenience.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cc.signals import LossEvent, RateSample

__all__ = ["Packet", "RateSample", "LossEvent"]


@dataclass(slots=True)
class Packet:
    """A data segment traversing the dumbbell network, and its own ACK.

    ``delivered_at_send``/``delivered_time_at_send`` snapshot the sender's
    delivery counter so the ACK can compute a delivery-rate sample, exactly
    like Linux's ``tcp_rate_skb_sent``.  ``ecn`` is the CE codepoint: an
    ECN-enabled AQM sets it at the bottleneck instead of dropping, and
    the ACK echoes it.  The receiver acknowledges every packet at once
    (QUIC-style per-packet ACKs), so the packet itself travels back to
    the sender as its ACK, with ``recv_time`` stamped by the flow's path.
    """

    flow_id: int
    seq: int
    size: int
    sent_time: float
    delivered_at_send: int
    delivered_time_at_send: float
    app_limited: bool
    is_retransmit: bool
    ecn: bool = False
    recv_time: float = 0.0
