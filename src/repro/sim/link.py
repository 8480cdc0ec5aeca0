"""Bottleneck link with a FIFO drop-tail queue.

This is the network element at the center of every experiment in the paper
(Figure 2): a fixed-capacity link fed by a drop-tail buffer.  The link
serializes packets one at a time at ``capacity`` bytes/second; packets
arriving while it is busy wait in the queue, and packets arriving when
the queue is full are dropped (and the drop reported to the
:class:`LinkStats` recorder).  Propagation is not the link's business:
a packet is handed to ``deliver`` the moment its serialization
completes, and the topology (:mod:`repro.sim.network`) adds each flow's
fixed delays from there.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Optional

from repro.sim.engine import EventLoop
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.core import Checker
    from repro.obs.bus import Telemetry


class LinkStats:
    """Aggregate counters and a queue-occupancy time integral for one link."""

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
        self._occupancy_integral = 0.0
        self._last_change_time = 0.0
        self._last_occupancy = 0

    def record_occupancy(self, now: float, occupancy_bytes: int) -> None:
        """Accumulate the time-weighted queue occupancy integral."""
        self._occupancy_integral += self._last_occupancy * (
            now - self._last_change_time
        )
        self._last_change_time = now
        self._last_occupancy = occupancy_bytes

    def mean_occupancy(self, now: float) -> float:
        """Time-averaged queue occupancy in bytes over [0, now]."""
        if now <= 0:
            return 0.0
        total = self._occupancy_integral + self._last_occupancy * (
            now - self._last_change_time
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
    """A drop-tail bottleneck: FIFO buffer + serializer.

    Each forwarded packet costs one event, its service completion.

    Args:
        loop: The event loop driving the simulation.
        capacity: Serialization rate in bytes per second.
        buffer_bytes: Drop-tail buffer capacity in bytes.  The packet
            currently being serialized does not count against the buffer,
            matching how token-bucket emulators (and the paper's model)
            account for buffer space.
        deliver: Callback invoked with each packet at the instant it
            exits the link (inside its service-completion event).
        on_drop: Optional callback invoked with each dropped packet.
        aqm: Optional :class:`repro.sim.aqm.RED` instance; when present,
            arriving packets may be dropped early even though the
            physical buffer still has room (the drop-tail limit is still
            enforced on top).
        ecn: When True, AQM decisions *mark* packets (set the CE bit)
            instead of dropping them; the drop-tail limit still drops.
            Requires ``aqm``.
        obs: Optional telemetry bus.  When set, each drop emits a
            ``link.drop`` event and bumps the ``link.dropped_packets`` /
            ``link.dropped_bytes`` counters, and the queue depth is
            sampled into the ``link.queue_bytes`` gauge on every
            enqueue.
        check: Optional :class:`repro.check.Checker`.  When set, every
            enqueue and service completion runs a byte-conservation
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
        deliver: Callable[[Packet], None],
        on_drop: Optional[Callable[[Packet], None]] = None,
        aqm: Optional[object] = None,
        ecn: bool = False,
        obs: Optional["Telemetry"] = None,
        check: Optional["Checker"] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if buffer_bytes <= 0:
            raise ValueError(
                f"buffer_bytes must be positive, got {buffer_bytes}"
            )
        if ecn and aqm is None:
            raise ValueError("ecn marking requires an aqm discipline")
        self.loop = loop
        self.capacity = capacity
        self.ecn = ecn
        self.buffer_bytes = buffer_bytes
        self.deliver = deliver
        self.on_drop = on_drop
        self.aqm = aqm
        self.obs = obs
        self.check = check
        self.stats = LinkStats()
        self._queue: Deque[tuple] = deque()  # (packet, enqueue_time)
        self._queued_bytes = 0
        self._busy = False
        # Conservation-audit tallies, maintained only when a checker is
        # attached (the audit needs every byte offered since t=0).
        self._offered_bytes = 0
        self._in_service_bytes = 0

    @property
    def queued_bytes(self) -> int:
        """Bytes currently waiting in the buffer (excludes in-service)."""
        return self._queued_bytes

    @property
    def queued_packets(self) -> int:
        """Packets currently waiting in the buffer."""
        return len(self._queue)

    def queuing_delay(self) -> float:
        """Delay a packet arriving now would experience before service."""
        return self._queued_bytes / self.capacity

    def set_capacity(self, capacity: float) -> None:
        """Change the serialization rate (time-varying capacity traces).

        Applies to the *next* packet entering service; the packet
        currently serializing finishes at the rate it started with.
        """
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.stats.capacity_changes += 1
        if self.obs is not None:
            self.obs.count("link.capacity_changes")
            self.obs.event(
                "link.capacity_change",
                time=self.loop.now,
                capacity=capacity,
            )
        if self.check is not None:
            self.check.capacity_change(self.loop.now, capacity)

    def enqueue(self, packet: Packet) -> bool:
        """Offer a packet to the link; returns False if it was dropped."""
        check = self.check
        if check is not None:
            self._offered_bytes += packet.size
        aqm = self.aqm
        if aqm is not None and aqm.on_enqueue(self._queued_bytes):
            if self.ecn:
                self._record_mark(packet)
            else:
                self._record_drop(packet, aqm=True)
                if check is not None:
                    self._audit(check)
                return False
        if self._busy:
            queued = self._queued_bytes + packet.size
            if queued > self.buffer_bytes:
                self._record_drop(packet)
                if check is not None:
                    self._audit(check)
                return False
            now = self.loop.now
            self._queue.append((packet, now))
            self._queued_bytes = queued
            self.stats.record_occupancy(now, queued)
        else:
            self._start_service(packet)
        if self.obs is not None:
            self.obs.gauge("link.queue_bytes", self._queued_bytes)
        if check is not None:
            self._audit(check)
        return True

    def _audit(self, check: "Checker") -> None:
        """Byte-conservation audit (sanitizer-enabled runs only)."""
        check.link_audit(
            self.loop.now,
            offered=self._offered_bytes,
            forwarded=self.stats.forwarded_bytes,
            dropped=self.stats.dropped_bytes,
            queued=self._queued_bytes,
            in_service=self._in_service_bytes,
            buffer_bytes=self.buffer_bytes,
            gauge=self.stats._last_occupancy,
            aqm_dropped=self.stats.aqm_dropped_bytes,
            marked=self.stats.marked_bytes,
        )

    def _record_drop(self, packet: Packet, aqm: bool = False) -> None:
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
                time=self.loop.now,
                flow_id=packet.flow_id,
                seq=packet.seq,
                queued_bytes=self._queued_bytes,
                aqm=aqm,
            )
        if self.on_drop is not None:
            self.on_drop(packet)

    def _record_mark(self, packet: Packet) -> None:
        """Set the CE bit instead of dropping (ECN-enabled AQM)."""
        packet.ecn = True
        self.stats.marked_packets += 1
        self.stats.marked_bytes += packet.size
        if self.obs is not None:
            self.obs.count("link.ecn_marks")
            self.obs.event(
                "link.mark",
                time=self.loop.now,
                flow_id=packet.flow_id,
                seq=packet.seq,
                queued_bytes=self._queued_bytes,
            )

    def _start_service(self, packet: Packet) -> None:
        self._busy = True
        if self.check is not None:
            self._in_service_bytes = packet.size
        self.loop.call_later(
            packet.size / self.capacity, self._finish_service, packet
        )

    def _finish_service(self, packet: Packet) -> None:
        check = self.check
        if check is not None:
            self._in_service_bytes = 0
        stats = self.stats
        stats.forwarded_packets += 1
        stats.forwarded_bytes += packet.size
        self.deliver(packet)
        now = self.loop.now
        queue = self._queue
        aqm = self.aqm
        while queue:
            nxt, enqueued_at = queue.popleft()
            self._queued_bytes -= nxt.size
            stats.record_occupancy(now, self._queued_bytes)
            if aqm is not None and aqm.on_dequeue(now, now - enqueued_at):
                if self.ecn:
                    # Head mark (CoDel-style CE): forward it marked.
                    self._record_mark(nxt)
                else:
                    # Head drop (CoDel-style): discard, try the next one.
                    self._record_drop(nxt, aqm=True)
                    continue
            self._start_service(nxt)
            if check is not None:
                self._audit(check)
            return
        self._busy = False
        if check is not None:
            self._audit(check)
