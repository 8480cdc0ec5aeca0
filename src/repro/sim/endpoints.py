"""The sender endpoint for the packet-level simulator.

(The receiver has no state of its own: it acknowledges every packet at
once, so the topology, :mod:`repro.sim.network`, folds it into the
flow's post-bottleneck path.)

The sender is a bulk (always-backlogged) source, like the iperf senders in
the paper's testbed.  It enforces the congestion controller's cwnd, paces
packets when the controller requests it (BBR-family), detects losses from
ACK gaps (the network never reorders, so a gap of more than
``REORDER_THRESHOLD`` packets means a drop), and maintains a retransmission
timeout as a last resort for tail losses.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, Optional

from repro.cc.base import CongestionControl
from repro.cc.laws.base import smooth_rtt
from repro.sim.engine import EventLoop
from repro.sim.packet import LossEvent, Packet, RateSample
from repro.sim.stats import FlowStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.core import Checker
    from repro.obs.bus import Telemetry

#: Packets of reordering tolerated before a gap is declared a loss
#: (fast-retransmit style dupack threshold).
REORDER_THRESHOLD = 3

#: Minimum retransmission timeout, seconds.
MIN_RTO = 0.2


class Sender:
    """A bulk TCP-like sender driving one congestion controller.

    Args:
        loop: Simulation event loop.
        flow_id: Unique flow identifier.
        cc: The congestion controller instance.
        transmit: Callback that injects a packet into the network.
        stats: Statistics recorder for this flow.
        start_time: Absolute time at which the flow starts sending.
        obs: Optional telemetry bus; loss declarations emit
            ``flow.loss``/``flow.retransmit`` events and RTO firings
            emit ``flow.rto``.
        check: Optional :class:`repro.check.Checker`.  When set, each
            processed ACK runs per-flow bounds checks (in-flight ≥ 0,
            cwnd ≥ floor, legal pacing gain/phase for BBR-family
            controllers; checks ``flow.*`` / ``cc.*``).
    """

    def __init__(
        self,
        loop: EventLoop,
        flow_id: int,
        cc: CongestionControl,
        transmit: Callable[[Packet], None],
        stats: FlowStats,
        start_time: float = 0.0,
        max_bytes: Optional[int] = None,
        obs: Optional["Telemetry"] = None,
        check: Optional["Checker"] = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.loop = loop
        self.flow_id = flow_id
        self.cc = cc
        self.transmit = transmit
        self.stats = stats
        self.mss = cc.mss
        self.max_bytes = max_bytes
        self.obs = obs
        self.check = check

        self._next_seq = 0
        self._in_flight_bytes = 0
        self._outstanding: Dict[int, Packet] = {}
        self._order: Deque[int] = deque()
        self._delivered = 0
        self._delivered_time = 0.0
        self._next_send_time = 0.0
        self._send_timer_pending = False
        self._srtt: Optional[float] = None
        self._last_ack_time = start_time
        self._rto_pending = False
        self._last_ecn_reaction = float("-inf")

        loop.call_at(start_time, self._on_start)

    @property
    def in_flight_bytes(self) -> int:
        """Bytes currently unacknowledged and not declared lost."""
        return self._in_flight_bytes

    def _on_start(self) -> None:
        self._delivered_time = self.loop.now
        self._last_ack_time = self.loop.now
        self._arm_rto()
        self._maybe_send()

    # -- transmission ----------------------------------------------------

    @property
    def done_sending(self) -> bool:
        """True once a finite flow has transmitted its whole transfer."""
        return (
            self.max_bytes is not None
            and self._next_seq * self.mss >= self.max_bytes
        )

    def _maybe_send(self) -> None:
        """Send packets while cwnd (and the pacer) permit."""
        now = self.loop.now
        cc = self.cc
        mss = self.mss
        max_bytes = self.max_bytes
        while (
            max_bytes is None or self._next_seq * mss < max_bytes
        ) and self._in_flight_bytes + mss <= cc.cwnd:
            rate = cc.pacing_rate
            if rate is not None and rate > 0:
                next_send = self._next_send_time
                if now < next_send:
                    if not self._send_timer_pending:
                        self._send_timer_pending = True
                        self.loop.call_at(next_send, self._on_send_timer)
                    return
                gap = mss / rate
                self._next_send_time = max(next_send, now - gap) + gap
            seq = self._next_seq
            packet = Packet(
                self.flow_id,
                seq,
                mss,
                now,
                self._delivered,
                self._delivered_time,
                False,  # app_limited: a bulk source always has data.
                False,  # is_retransmit
            )
            self._next_seq = seq + 1
            self._outstanding[seq] = packet
            self._order.append(seq)
            self._in_flight_bytes += mss
            self.stats.sent_packets += 1
            self.transmit(packet)

    def _on_send_timer(self) -> None:
        self._send_timer_pending = False
        self._maybe_send()

    # -- acknowledgements ------------------------------------------------

    def on_ack(self, packet: Packet) -> None:
        """Process the ACK of ``packet``, delivered by the reverse path
        (the packet is its own ACK)."""
        seq = packet.seq
        if self._outstanding.pop(seq, None) is None:
            return  # ACK for a packet already declared lost.
        now = self.loop.now
        size = packet.size
        self._last_ack_time = now
        self._in_flight_bytes -= size
        delivered = self._delivered + size
        self._delivered = delivered
        self._delivered_time = now

        rtt = now - packet.sent_time
        self._srtt = smooth_rtt(self._srtt, rtt)
        stats = self.stats
        stats.record_rtt(rtt)
        stats.ack_count += 1

        delivery_rate = 0.0
        interval = now - packet.delivered_time_at_send
        if interval > 0:
            delivery_rate = (
                delivered - packet.delivered_at_send
            ) / interval

        order = self._order
        if order[0] == seq:
            order.popleft()  # In order: nothing ahead of it is missing.
        else:
            self._detect_losses(seq)
        if packet.ecn:
            self._on_ecn_echo(now)

        cc = self.cc
        cc.on_ack(
            RateSample(
                rtt,
                delivery_rate,
                delivered,
                packet.delivered_at_send,
                size,  # acked_bytes
                self._in_flight_bytes,
                packet.app_limited,
                now,
            )
        )
        cc.clamp_cwnd()
        check = self.check
        if check is not None:
            check.flow_update(now, self.flow_id, cc, self._in_flight_bytes)
        self._maybe_send()

    def _on_ecn_echo(self, now: float) -> None:
        """React to an ECN-Echo: a congestion event without byte loss.

        Classic ECN semantics (RFC 3168): the sender responds as it
        would to a loss, at most once per RTT — subsequent CE marks
        within the same window are new echoes of the same congestion
        event.  Nothing is retransmitted and no loss is recorded in the
        flow stats; the controller sees a :class:`LossEvent` with zero
        lost bytes/packets (rate-based controllers that only react to
        actual byte loss, like BBR, ignore it by design).
        """
        window = self._srtt if self._srtt is not None else MIN_RTO
        if now - self._last_ecn_reaction < window:
            return
        self._last_ecn_reaction = now
        if self.obs is not None:
            self.obs.event(
                "flow.ecn_echo",
                time=now,
                flow_id=self.flow_id,
                cc=self.cc.name,
            )
            self.obs.count("flow.ecn_reactions")
        self.cc.on_loss(
            LossEvent(
                lost_bytes=0,
                in_flight=self._in_flight_bytes,
                now=now,
                lost_packets=0,
            )
        )
        self.cc.clamp_cwnd()

    def _detect_losses(self, acked_seq: int) -> None:
        """Declare outstanding packets below the ACKed seq lost (gap-based)."""
        order = self._order
        outstanding = self._outstanding
        threshold = acked_seq - (REORDER_THRESHOLD - 1)
        lost_bytes = 0
        lost_packets = 0
        while order:
            seq = order[0]
            if seq not in outstanding:
                order.popleft()
                continue
            if seq >= threshold:
                break
            packet = outstanding.pop(seq)
            order.popleft()
            self._in_flight_bytes -= packet.size
            lost_bytes += packet.size
            lost_packets += 1
        if lost_packets:
            self.stats.record_loss(lost_packets)
            if self.obs is not None:
                self.obs.event(
                    "flow.loss",
                    time=self.loop.now,
                    flow_id=self.flow_id,
                    cc=self.cc.name,
                    lost_packets=lost_packets,
                    lost_bytes=lost_bytes,
                )
                self.obs.event(
                    "flow.retransmit",
                    time=self.loop.now,
                    flow_id=self.flow_id,
                    cc=self.cc.name,
                    packets=lost_packets,
                )
                self.obs.count("flow.lost_packets", lost_packets)
            event = LossEvent(
                lost_bytes=lost_bytes,
                in_flight=self._in_flight_bytes,
                now=self.loop.now,
                lost_packets=lost_packets,
            )
            self.cc.on_loss(event)
            self.cc.clamp_cwnd()

    # -- retransmission timeout ------------------------------------------

    def _rto_interval(self) -> float:
        if self._srtt is None:
            return 1.0
        return max(MIN_RTO, 4.0 * self._srtt)

    def _arm_rto(self) -> None:
        if self._rto_pending:
            return
        self._rto_pending = True
        self.loop.call_later(self._rto_interval(), self._on_rto_timer)

    def _on_rto_timer(self) -> None:
        self._rto_pending = False
        if self.done_sending and not self._outstanding:
            return  # Finite flow complete: stop rearming the timer.
        now = self.loop.now
        idle = now - self._last_ack_time
        if self._outstanding and idle >= self._rto_interval():
            # Everything in flight is presumed lost (tail loss).
            lost_bytes = self._in_flight_bytes
            lost_packets = len(self._outstanding)
            self._outstanding.clear()
            self._order.clear()
            self._in_flight_bytes = 0
            self.stats.record_loss(lost_packets)
            if self.obs is not None:
                self.obs.event(
                    "flow.rto",
                    time=now,
                    flow_id=self.flow_id,
                    cc=self.cc.name,
                    lost_packets=lost_packets,
                    lost_bytes=lost_bytes,
                )
                self.obs.count("flow.rto_firings")
                self.obs.count("flow.lost_packets", lost_packets)
            self.cc.on_loss(
                LossEvent(
                    lost_bytes=lost_bytes,
                    in_flight=0,
                    now=now,
                    lost_packets=lost_packets,
                )
            )
            self.cc.clamp_cwnd()
            self._last_ack_time = now
            self._maybe_send()
        self._arm_rto()

