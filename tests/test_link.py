"""Drop-tail bottleneck link: each packet is decided when it arrives.

The link hands ``(packet, departure)`` to the flow's path at arrival and
schedules nothing; what happens at the head of the queue (counters, the
occupancy integral, CoDel head drops) is applied when the link is next
touched or settled.
"""

import pytest

from repro.sim.aqm import CoDel, CoDelConfig
from repro.sim.engine import EventLoop
from repro.sim.link import Link
from repro.sim.network import FlowPath
from repro.sim.packet import Packet
from repro.sim.stats import FlowStats


def make_packet(seq=0, size=1000, flow_id=0):
    return Packet(
        flow_id=flow_id,
        seq=seq,
        size=size,
        sent_time=0.0,
        delivered_at_send=0,
        delivered_time_at_send=0.0,
        app_limited=False,
        is_retransmit=False,
    )


class Departures(list):
    """A flow path stand-in: records ``(seq, departure)``."""

    def __call__(self, packet, departure):
        self.append((packet.seq, departure))


def make_link(loop, capacity=1e6, buffer_bytes=5000, **kwargs):
    departures = Departures()
    link = Link(
        loop=loop,
        capacity=capacity,
        buffer_bytes=buffer_bytes,
        deliver=[departures],
        **kwargs,
    )
    return link, departures


def arrive(loop, link, when, packet):
    """Offer ``packet`` at ``when``; returns enqueue's verdict."""
    verdicts = []
    loop.call_at(when, lambda: verdicts.append(link.enqueue(packet)))
    loop.run_until(when)
    return verdicts[0]


def test_single_packet_serialization_time():
    loop = EventLoop()
    link, departures = make_link(loop, capacity=1e6)
    assert link.enqueue(make_packet(size=1000))
    assert departures == [(0, 0.001)]  # Known at arrival: 1000 B / 1 MB/s.


def test_the_link_schedules_no_event():
    loop = EventLoop()
    link, departures = make_link(loop, buffer_bytes=1e9)
    for seq in range(50):
        link.enqueue(make_packet(seq=seq))
    assert loop.pending() == 0
    assert len(departures) == 50


def test_propagation_delay_added_after_serialization():
    # The flow path takes the departure the link computed at arrival:
    # the ACK is back one RTT after serialization ends.
    loop = EventLoop()
    acked = []
    path = FlowPath(loop, 0.1, FlowStats(0), acked.append)
    link, _ = make_link(loop, capacity=1e6)
    link.deliver = [path.forward]
    link.enqueue(make_packet(size=1000))
    assert loop.pending() == 1  # The ACK, and nothing else.
    loop.run_until(0.1009)
    assert acked == []
    loop.run_until(0.1011)
    [packet] = acked
    assert packet.recv_time == pytest.approx(0.051)


def test_fifo_order_preserved():
    loop = EventLoop()
    link, departures = make_link(loop)
    for seq in range(5):
        link.enqueue(make_packet(seq=seq))
    assert [seq for seq, _ in departures] == [0, 1, 2, 3, 4]
    times = [when for _, when in departures]
    assert times == sorted(times)


def test_back_to_back_packets_serialize_sequentially():
    loop = EventLoop()
    link, departures = make_link(loop, capacity=1e6)
    for seq in range(3):
        link.enqueue(make_packet(seq=seq, size=1000))
    assert [when for _, when in departures] == pytest.approx(
        [0.001, 0.002, 0.003]
    )


def test_an_idle_link_starts_a_packet_at_its_arrival():
    loop = EventLoop()
    link, departures = make_link(loop, capacity=1e6)
    arrive(loop, link, 0.0, make_packet(seq=0))
    arrive(loop, link, 0.5, make_packet(seq=1))
    assert departures == [(0, 0.001), (1, 0.501)]


def test_drop_when_buffer_full():
    loop = EventLoop()
    # Buffer of 2500B: the first packet goes into service (not buffered),
    # two more fit the queue, the fourth is dropped.
    link, departures = make_link(loop, buffer_bytes=2500)
    results = [link.enqueue(make_packet(seq=s, size=1000)) for s in range(4)]
    assert results == [True, True, True, False]
    assert [seq for seq, _ in departures] == [0, 1, 2]
    assert link.stats.dropped_packets == 1  # Decided, and counted, now.
    link.settle(1.0)
    assert link.stats.forwarded_packets == 3


def test_queue_drains_and_accepts_again():
    loop = EventLoop()
    link, departures = make_link(loop, buffer_bytes=1000)
    assert link.enqueue(make_packet(seq=0))
    assert link.enqueue(make_packet(seq=1))
    assert not link.enqueue(make_packet(seq=2))  # Full.
    assert arrive(loop, link, 1.0, make_packet(seq=3))  # Space again.
    assert [seq for seq, _ in departures] == [0, 1, 3]


def test_queuing_delay_reflects_backlog():
    loop = EventLoop()
    link, _ = make_link(loop, capacity=1e6, buffer_bytes=10_000)
    assert link.queuing_delay() == 0.0
    link.enqueue(make_packet(size=1000))  # In service until 0.001.
    assert link.queuing_delay() == pytest.approx(0.001)
    link.enqueue(make_packet(size=1000))
    assert link.queuing_delay() == pytest.approx(0.002)
    assert link.queued_bytes == 1000


def test_arrival_at_a_dequeue_sees_the_queue_before_it():
    # Packet 1 reaches the head at 0.001, the instant packet 0 departs.
    # A packet arriving then still counts packet 1 as waiting, so a
    # 2000-byte buffer holding 1 and 2 has no room for it.
    loop = EventLoop()
    link, departures = make_link(loop, capacity=1e6, buffer_bytes=2000)
    for seq in range(3):
        assert link.enqueue(make_packet(seq=seq))
    assert not arrive(loop, link, 0.001, make_packet(seq=3))
    # One instant later packet 1 is in service: room for one.
    assert arrive(loop, link, 0.0010001, make_packet(seq=4))
    assert departures[-1] == (4, pytest.approx(0.004))


def test_arrival_at_the_last_departure_waits_for_it():
    # The link frees at 0.001: a packet arriving then is queued behind
    # the departure (its sojourn is zero), not sent on an idle link.
    loop = EventLoop()
    link, departures = make_link(loop, capacity=1e6)
    link.enqueue(make_packet(seq=0))
    arrive(loop, link, 0.001, make_packet(seq=1))
    assert link.queued_bytes == 1000
    assert departures == [(0, 0.001), (1, 0.002)]


def test_codel_head_drop_of_the_last_queued_packet_leaves_the_link_idle():
    loop = EventLoop()
    codel = CoDel(CoDelConfig(target=0.005, interval=0.1))
    # Sojourns above target for a full interval put CoDel in its
    # dropping state, next drop due at 0.3.
    codel.on_dequeue(0.0, 0.01)
    assert codel.on_dequeue(0.2, 0.01)
    link, departures = make_link(loop, capacity=1e5, aqm=codel)
    assert arrive(loop, link, 0.3, make_packet(seq=0))  # Idle: served.
    # Waits until 0.31, 10 ms > target: dropped at the head, decided now.
    assert arrive(loop, link, 0.3, make_packet(seq=1))
    assert departures == [(0, pytest.approx(0.31))]
    assert link.stats.dropped_packets == 0  # Not at the head yet.
    # After 0.31 the queue is empty and the link idle: the next packet
    # is served at once, with no CoDel verdict.
    assert arrive(loop, link, 0.4, make_packet(seq=2))
    assert departures[-1] == (2, pytest.approx(0.41))
    assert link.stats.aqm_dropped_packets == 1
    assert link.stats.forwarded_packets == 1
    assert link.queued_bytes == 0


def test_capacity_step_applies_to_the_packet_reaching_the_head_after_it():
    loop = EventLoop()
    link, departures = make_link(
        loop, capacity=1e6, capacity_steps=[(0.0015, 5e5)]
    )
    for seq in range(3):
        link.enqueue(make_packet(seq=seq, size=1000))
    # Packet 1 started at 0.001, before the step: it keeps 1 MB/s.
    assert [when for _, when in departures] == pytest.approx(
        [0.001, 0.002, 0.004]
    )
    assert link.stats.capacity_changes == 0  # Recorded when time passes.
    link.settle(0.0015)
    assert link.stats.capacity_changes == 1
    assert link.capacity == 5e5


def test_link_rate_enforced_over_many_packets():
    loop = EventLoop()
    link, departures = make_link(loop, capacity=1e6, buffer_bytes=1e9)
    n = 100
    for seq in range(n):
        link.enqueue(make_packet(seq=seq, size=1000))
    # 100 packets × 1000 B at 1 MB/s = 0.1 s of serialization.
    assert departures[-1][1] == pytest.approx(0.1)
    link.settle(0.0999)
    assert link.stats.forwarded_packets == n - 1
    link.settle(departures[-1][1])  # Inclusive.
    assert link.stats.forwarded_bytes == n * 1000


def test_mean_occupancy_follows_the_queue():
    # Three packets at t=0: 2000 B wait until 0.001, 1000 B until
    # 0.002, so the mean over 0.004 s is 3000 B·ms / 4 ms.
    loop = EventLoop()
    link, _ = make_link(loop, capacity=1e6)
    for seq in range(3):
        link.enqueue(make_packet(seq=seq))
    link.settle(0.004)
    assert link.stats.mean_occupancy(0.004) == pytest.approx(750.0)


def test_drop_rate_statistic():
    loop = EventLoop()
    link, _ = make_link(loop, buffer_bytes=1000)
    link.enqueue(make_packet(seq=0))
    link.enqueue(make_packet(seq=1))
    link.enqueue(make_packet(seq=2))  # Dropped.
    link.settle(1.0)  # Forwarded counters update at departure.
    assert link.stats.drop_rate == pytest.approx(1 / 3)


def test_mean_occupancy_zero_when_unused():
    loop = EventLoop()
    link, _ = make_link(loop)
    assert link.stats.mean_occupancy(10.0) == 0.0


def test_invalid_parameters():
    loop = EventLoop()
    with pytest.raises(ValueError):
        Link(loop, capacity=0, buffer_bytes=1, deliver=[])
    with pytest.raises(ValueError):
        Link(loop, capacity=1, buffer_bytes=0, deliver=[])
    with pytest.raises(ValueError):
        Link(
            loop, capacity=1, buffer_bytes=1, deliver=[],
            capacity_steps=[(1.0, 0.0)],
        )
