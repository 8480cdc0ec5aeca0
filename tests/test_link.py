"""Drop-tail bottleneck link: serialization, queuing, drops."""

import pytest

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


def make_link(loop, delivered, capacity=1e6, buffer_bytes=5000, on_drop=None):
    return Link(
        loop=loop,
        capacity=capacity,
        buffer_bytes=buffer_bytes,
        deliver=delivered.append,
        on_drop=on_drop,
    )


def test_single_packet_serialization_time():
    loop = EventLoop()
    delivered = []
    link = make_link(loop, delivered, capacity=1e6)
    link.enqueue(make_packet(size=1000))
    loop.run_until(0.0009)
    assert delivered == []
    loop.run_until(0.0011)
    assert len(delivered) == 1


def test_propagation_delay_added_after_serialization():
    # The link hands the packet over the instant serialization ends;
    # propagation is the flow path's: the ACK is back one RTT later.
    loop = EventLoop()
    acked = []
    path = FlowPath(loop, 0.1, FlowStats(0), acked.append)
    link = make_link(loop, [], capacity=1e6)
    link.deliver = path.forward
    link.enqueue(make_packet(size=1000))
    loop.run_until(0.1009)
    assert acked == []
    loop.run_until(0.1011)
    assert [ack.recv_time for ack in acked] == [pytest.approx(0.051)]


def test_fifo_order_preserved():
    loop = EventLoop()
    delivered = []
    link = make_link(loop, delivered)
    for seq in range(5):
        link.enqueue(make_packet(seq=seq))
    loop.run_until(1.0)
    assert [p.seq for p in delivered] == [0, 1, 2, 3, 4]


def test_back_to_back_packets_serialize_sequentially():
    loop = EventLoop()
    delivered = []
    link = make_link(loop, delivered, capacity=1e6)
    times = []
    link.deliver = lambda p: times.append(loop.now)
    for seq in range(3):
        link.enqueue(make_packet(seq=seq, size=1000))
    loop.run_until(1.0)
    assert times == pytest.approx([0.001, 0.002, 0.003])


def test_drop_when_buffer_full():
    loop = EventLoop()
    delivered = []
    dropped = []
    # Buffer of 2500B: the first packet goes into service (not buffered),
    # two more fit the queue, the fourth is dropped.
    link = make_link(
        loop, delivered, buffer_bytes=2500, on_drop=dropped.append
    )
    results = [link.enqueue(make_packet(seq=s, size=1000)) for s in range(4)]
    assert results == [True, True, True, False]
    assert [p.seq for p in dropped] == [3]
    loop.run_until(1.0)
    assert len(delivered) == 3
    assert link.stats.dropped_packets == 1
    assert link.stats.forwarded_packets == 3


def test_queue_drains_and_accepts_again():
    loop = EventLoop()
    delivered = []
    link = make_link(loop, delivered, buffer_bytes=1000)
    assert link.enqueue(make_packet(seq=0))
    assert link.enqueue(make_packet(seq=1))
    assert not link.enqueue(make_packet(seq=2))  # Full.
    loop.run_until(1.0)
    assert link.enqueue(make_packet(seq=3))  # Space again.
    loop.run_until(2.0)
    assert [p.seq for p in delivered] == [0, 1, 3]


def test_queuing_delay_reflects_backlog():
    loop = EventLoop()
    delivered = []
    link = make_link(loop, delivered, capacity=1e6, buffer_bytes=10_000)
    link.enqueue(make_packet(size=1000))  # In service.
    assert link.queuing_delay() == 0.0
    link.enqueue(make_packet(size=1000))
    assert link.queuing_delay() == pytest.approx(0.001)
    assert link.queued_packets == 1
    assert link.queued_bytes == 1000


def test_link_rate_enforced_over_many_packets():
    loop = EventLoop()
    delivered = []
    link = make_link(loop, delivered, capacity=1e6, buffer_bytes=1e9)
    n = 100
    for seq in range(n):
        link.enqueue(make_packet(seq=seq, size=1000))
    loop.run_until(1000.0)
    # 100 packets × 1000 B at 1 MB/s = 0.1 s of serialization.
    assert loop.peek_time() is None
    assert len(delivered) == n
    assert link.stats.forwarded_bytes == n * 1000


def test_drop_rate_statistic():
    loop = EventLoop()
    delivered = []
    link = make_link(loop, delivered, buffer_bytes=1000)
    link.enqueue(make_packet(seq=0))
    link.enqueue(make_packet(seq=1))
    link.enqueue(make_packet(seq=2))  # Dropped.
    loop.run_until(1.0)  # Forwarded counters update at service end.
    assert link.stats.drop_rate == pytest.approx(1 / 3)


def test_mean_occupancy_zero_when_unused():
    loop = EventLoop()
    link = make_link(loop, [])
    assert link.stats.mean_occupancy(10.0) == 0.0


def test_invalid_parameters():
    loop = EventLoop()
    with pytest.raises(ValueError):
        Link(loop, capacity=0, buffer_bytes=1, deliver=print)
    with pytest.raises(ValueError):
        Link(loop, capacity=1, buffer_bytes=0, deliver=print)
