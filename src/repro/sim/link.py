"""Bottleneck link: a FIFO drop-tail queue that decides each packet as it
arrives.

This is the network element at the center of every experiment in the
paper (Figure 2): a fixed-capacity link fed by a drop-tail buffer.  The
link serializes packets one at a time at ``capacity`` bytes/second;
packets arriving while it is busy wait in the queue, and packets
arriving when the queue is full are dropped (and the drop reported to
the :class:`LinkStats` recorder).

In a FIFO a packet's fate and departure depend only on the packets
ahead of it, so :meth:`Link.enqueue` settles everything about a packet
the moment it arrives — the AQM's verdict, the tail-drop check against
the bytes still waiting, the instant it reaches the head of the queue
(the departure of the last packet accepted before it), CoDel's verdict
at that instant, and its departure — and hands ``(packet, departure)``
to the flow's path (:class:`repro.sim.network.FlowPath`).  The link
schedules no event.  What happens at the head of the queue later (the
occupancy integral, the forwarded / dropped / marked counters, CoDel's
head drops, ``obs`` events, ``check`` audits and capacity-change
records) is bookkeeping, applied in time order whenever the link is
next touched and by :meth:`Link.settle` when a run ends.

Tie rule: an arrival at the same instant as a dequeue sees the queue
*before* that dequeue.
"""

from __future__ import annotations

import math
from collections import deque
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Optional,
    Sequence,
    Tuple,
)

from repro.sim.engine import EventLoop
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.core import Checker
    from repro.obs.bus import Telemetry

_INF = math.inf


class LinkStats:
    """Aggregate counters and a queue-occupancy time integral for one link.

    The link keeps the integral itself: ``occupancy`` bytes have been
    queued since ``occupancy_time``, and ``occupancy_integral`` holds
    the byte-seconds before that.
    """

    def __init__(self) -> None:
        self.forwarded_packets = 0
        self.forwarded_bytes = 0
        # Totals: tail drops + AQM early drops.
        self.dropped_packets = 0
        self.dropped_bytes = 0
        # AQM early drops alone (tail drops = total − aqm).
        self.aqm_dropped_packets = 0
        self.aqm_dropped_bytes = 0
        # ECN CE marks (marked packets are forwarded, not dropped).
        self.marked_packets = 0
        self.marked_bytes = 0
        # Capacity changes applied by a time-varying trace.
        self.capacity_changes = 0
        self.occupancy_integral = 0.0
        self.occupancy_time = 0.0
        self.occupancy = 0

    def mean_occupancy(self, now: float) -> float:
        """Time-averaged queue occupancy in bytes over [0, now]."""
        if now <= 0:
            return 0.0
        total = self.occupancy_integral + self.occupancy * (
            now - self.occupancy_time
        )
        return total / now

    @property
    def drop_rate(self) -> float:
        """Fraction of offered packets that were dropped."""
        offered = self.forwarded_packets + self.dropped_packets
        if offered == 0:
            return 0.0
        return self.dropped_packets / offered


class Link:
    """A drop-tail bottleneck: FIFO buffer + serializer, decided at arrival.

    Args:
        loop: The event loop whose clock stamps arrivals.
        capacity: Serialization rate in bytes per second at t = 0.
        buffer_bytes: Drop-tail buffer capacity in bytes.  The packet
            currently being serialized does not count against the buffer,
            matching how token-bucket emulators (and the paper's model)
            account for buffer space.
        deliver: One callback per flow id; ``deliver[packet.flow_id]``
            is called with ``(packet, departure)`` for every packet the
            link will forward, at its arrival.
        aqm: Optional :class:`repro.sim.aqm.RED` or
            :class:`repro.sim.aqm.CoDel` (whose ``acts_on_enqueue`` /
            ``acts_on_dequeue`` say which hook the link calls).  RED may
            drop an arriving packet even though the physical buffer
            still has room (the drop-tail limit is still enforced on
            top); CoDel may drop a packet as it reaches the head of the
            queue.
        ecn: When True, AQM decisions *mark* packets (set the CE bit)
            instead of dropping them; the drop-tail limit still drops.
            Requires ``aqm``.
        capacity_steps: ``(time, capacity)`` changes after t = 0, in
            time order (a time-varying capacity trace).  A packet
            serializes at the capacity in force when it reaches the head
            of the queue.
        obs: Optional telemetry bus.  When set, each drop emits a
            ``link.drop`` event and bumps the ``link.dropped_packets`` /
            ``link.dropped_bytes`` counters.
        check: Optional :class:`repro.check.Checker`.  When set, every
            arrival and every departure runs a byte-conservation
            audit: offered bytes must equal forwarded + dropped +
            queued + in-service, the queue must respect the buffer
            bound, and the occupancy-integral gauge must track the
            queue exactly (checks ``link.*``).
    """

    def __init__(
        self,
        loop: EventLoop,
        capacity: float,
        buffer_bytes: float,
        deliver: Sequence[Callable[[Packet, float], None]],
        aqm: Optional[object] = None,
        ecn: bool = False,
        capacity_steps: Sequence[Tuple[float, float]] = (),
        obs: Optional["Telemetry"] = None,
        check: Optional["Checker"] = None,
    ) -> None:
        for rate in (capacity, *(c for _, c in capacity_steps)):
            if rate <= 0:
                raise ValueError(f"capacity must be positive, got {rate}")
        if buffer_bytes <= 0:
            raise ValueError(
                f"buffer_bytes must be positive, got {buffer_bytes}"
            )
        if ecn and aqm is None:
            raise ValueError("ecn marking requires an aqm discipline")
        self.loop = loop
        #: The capacity in force at the link's bookkeeping clock.
        self.capacity = capacity
        self.ecn = ecn
        self.buffer_bytes = buffer_bytes
        self.deliver = deliver
        self.aqm = aqm
        # Only the hook a discipline acts on is called: RED's at the
        # tail, CoDel's at the head.
        self._tail_verdict = (
            aqm.on_enqueue if aqm is not None and aqm.acts_on_enqueue else None
        )
        self._head_verdict = (
            aqm.on_dequeue if aqm is not None and aqm.acts_on_dequeue else None
        )
        self.obs = obs
        self.check = check
        self.stats = LinkStats()
        # Waiting packets, FIFO: (packet, departure or None for a CoDel
        # head drop, CoDel head mark?).  Each reaches the head of the
        # queue when the packet in service ahead of it departs.
        self._queue: Deque[Tuple[Packet, Optional[float], bool]] = deque()
        self._queued_bytes = 0
        # The packet in service as of the bookkeeping clock.
        self._serving_until = _INF
        self._serving_bytes = 0
        # Departure of the last packet accepted for forwarding.
        self._free_at = -_INF
        # Capacity as of the latest decision (which may lie ahead of
        # the bookkeeping clock), and the changes still to record.
        self._steps = list(capacity_steps)
        self._rate = capacity
        self._rate_index = 0
        self._rate_change_at = self._step_time(0)
        self._changes_recorded = 0
        self._change_due = self._rate_change_at
        # Bytes offered since t=0, kept only when a checker is attached
        # (the conservation audit needs them).
        self._offered_bytes = 0

    @property
    def queued_bytes(self) -> int:
        """Bytes waiting in the buffer (excludes in-service), as of the
        last arrival or :meth:`settle`."""
        return self._queued_bytes

    def queuing_delay(self) -> float:
        """Time a packet arriving now would wait before its service."""
        return max(self._free_at - self.loop.now, 0.0)

    def enqueue(self, packet: Packet) -> bool:
        """Offer a packet to the link; returns False if it was dropped
        on arrival (a CoDel head drop is decided here too, but the
        packet is queued until it reaches the head)."""
        now = self.loop.now
        if self._serving_until < now:
            self._advance(now)
        if self._change_due <= now:
            self._record_changes(now)
        check = self.check
        size = packet.size
        if check is not None:
            self._offered_bytes += size
        tail_verdict = self._tail_verdict
        if tail_verdict is not None and tail_verdict(self._queued_bytes):
            if self.ecn:
                packet.ecn = True
                self._record_mark(packet, now)
            else:
                self._record_drop(packet, now, aqm=True)
                if check is not None:
                    self._audit(check, now)
                return False
        start = self._free_at
        if start >= now:
            queued = self._queued_bytes + size
            if queued > self.buffer_bytes:
                self._record_drop(packet, now)
                if check is not None:
                    self._audit(check, now)
                return False
            stats = self.stats
            stats.occupancy_integral += stats.occupancy * (
                now - stats.occupancy_time
            )
            stats.occupancy_time = now
            stats.occupancy = queued
            self._queued_bytes = queued
            # CoDel's verdict at the head: it reads only the clock and
            # the sojourn, and arrivals come in dequeue order.
            head_verdict = self._head_verdict
            verdict = head_verdict is not None and head_verdict(
                start, start - now
            )
            if verdict and not self.ecn:
                self._queue.append((packet, None, False))
            else:
                if verdict:
                    packet.ecn = True
                if start >= self._rate_change_at:
                    self._advance_rate(start)
                departure = start + size / self._rate
                self._queue.append((packet, departure, verdict))
                self._free_at = departure
                self.deliver[packet.flow_id](packet, departure)
        else:
            if now >= self._rate_change_at:
                self._advance_rate(now)
            departure = now + size / self._rate
            self._serving_until = departure
            self._serving_bytes = size
            self._free_at = departure
            self.deliver[packet.flow_id](packet, departure)
        if check is not None:
            self._audit(check, now)
        return True

    def settle(self, until: float) -> None:
        """Apply every departure, dequeue and capacity change due at or
        before ``until``.  A run ends with this; no packet may arrive at
        or before ``until`` afterwards."""
        self._advance(math.nextafter(until, _INF))
        if self._change_due <= until:
            self._record_changes(until)

    def _advance(self, until: float) -> None:
        """Apply the departures due strictly before ``until``, each with
        the dequeues it triggers at its instant, in time order."""
        stats = self.stats
        queue = self._queue
        check = self.check
        t = self._serving_until
        while t < until:
            if self._change_due <= t:
                self._record_changes(t)
            stats.forwarded_packets += 1
            stats.forwarded_bytes += self._serving_bytes
            serving_until = _INF
            serving_bytes = 0
            while queue:
                packet, departure, head_mark = queue.popleft()
                size = packet.size
                queued = self._queued_bytes - size
                self._queued_bytes = queued
                stats.occupancy_integral += stats.occupancy * (
                    t - stats.occupancy_time
                )
                stats.occupancy_time = t
                stats.occupancy = queued
                if departure is None:
                    self._record_drop(packet, t, aqm=True)
                    continue
                if head_mark:
                    self._record_mark(packet, t)
                serving_until = departure
                serving_bytes = size
                break
            self._serving_until = serving_until
            self._serving_bytes = serving_bytes
            if check is not None:
                self._audit(check, t)
            t = serving_until

    def _step_time(self, index: int) -> float:
        steps = self._steps
        return steps[index][0] if index < len(steps) else _INF

    def _advance_rate(self, when: float) -> None:
        """Move the decision capacity to the one in force at ``when``."""
        while self._rate_change_at <= when:
            self._rate = self._steps[self._rate_index][1]
            self._rate_index += 1
            self._rate_change_at = self._step_time(self._rate_index)

    def _record_changes(self, upto: float) -> None:
        """Record the capacity changes at or before ``upto``."""
        while self._change_due <= upto:
            when, capacity = self._steps[self._changes_recorded]
            self._changes_recorded += 1
            self._change_due = self._step_time(self._changes_recorded)
            self.capacity = capacity
            self.stats.capacity_changes += 1
            if self.obs is not None:
                self.obs.count("link.capacity_changes")
                self.obs.event(
                    "link.capacity_change", time=when, capacity=capacity
                )
            if self.check is not None:
                self.check.capacity_change(when, capacity)

    def _audit(self, check: "Checker", now: float) -> None:
        """Byte-conservation audit (sanitizer-enabled runs only)."""
        check.link_audit(
            now,
            offered=self._offered_bytes,
            forwarded=self.stats.forwarded_bytes,
            dropped=self.stats.dropped_bytes,
            queued=self._queued_bytes,
            in_service=self._serving_bytes,
            buffer_bytes=self.buffer_bytes,
            gauge=self.stats.occupancy,
            aqm_dropped=self.stats.aqm_dropped_bytes,
            marked=self.stats.marked_bytes,
        )

    def _record_drop(
        self, packet: Packet, now: float, aqm: bool = False
    ) -> None:
        self.stats.dropped_packets += 1
        self.stats.dropped_bytes += packet.size
        if aqm:
            self.stats.aqm_dropped_packets += 1
            self.stats.aqm_dropped_bytes += packet.size
        if self.obs is not None:
            self.obs.count("link.dropped_packets")
            self.obs.count("link.dropped_bytes", packet.size)
            if aqm:
                self.obs.count("link.aqm_drops")
            self.obs.event(
                "link.drop",
                time=now,
                flow_id=packet.flow_id,
                seq=packet.seq,
                queued_bytes=self._queued_bytes,
                aqm=aqm,
            )

    def _record_mark(self, packet: Packet, now: float) -> None:
        """Count a CE mark (ECN-enabled AQM) set on ``packet``."""
        self.stats.marked_packets += 1
        self.stats.marked_bytes += packet.size
        if self.obs is not None:
            self.obs.count("link.ecn_marks")
            self.obs.event(
                "link.mark",
                time=now,
                flow_id=packet.flow_id,
                seq=packet.seq,
                queued_bytes=self._queued_bytes,
            )
