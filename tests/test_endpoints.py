"""Sender endpoint: ACK processing, loss detection, RTO."""

import pytest

from repro.cc.base import CongestionControl
from repro.sim.endpoints import REORDER_THRESHOLD, Sender
from repro.sim.engine import EventLoop
from repro.sim.network import FlowPath
from repro.sim.packet import Ack
from repro.sim.stats import FlowStats


class RecordingCC(CongestionControl):
    """A fixed-window controller that records everything it is told."""

    name = "recording"

    def __init__(self, mss=1000, cwnd_segments=4):
        super().__init__(mss=mss)
        self.cwnd = cwnd_segments * mss
        self.samples = []
        self.losses = []

    def on_ack(self, sample):
        self.samples.append(sample)

    def on_loss(self, event):
        self.losses.append(event)


def build_path(loop, cc, rtt=0.02):
    """Sender → the network's flow path, with no bottleneck before it."""
    stats = FlowStats(0)
    sent = []
    sender = Sender(
        loop=loop,
        flow_id=0,
        cc=cc,
        transmit=lambda p: sent.append(p) or path.forward(p),
        stats=stats,
        start_time=0.0,
    )
    path = FlowPath(loop, rtt, stats, sender.on_ack)
    return sender, path, stats, sent


def test_sender_respects_cwnd():
    loop = EventLoop()
    cc = RecordingCC(cwnd_segments=4)
    sender, _path, _stats, sent = build_path(loop, cc)
    loop.run_until(0.001)
    assert len(sent) == 4  # cwnd of 4 packets, nothing ACKed yet.


def test_ack_clocking_sustains_flow():
    loop = EventLoop()
    cc = RecordingCC(cwnd_segments=4)
    sender, path, stats, sent = build_path(loop, cc, rtt=0.02)
    loop.run_until(1.0)
    path.settle(loop.now)
    # 4 packets per 20 ms RTT for 1 s = ~200 packets.
    assert len(sent) == pytest.approx(200, rel=0.1)
    assert stats.delivered_bytes == pytest.approx(200 * 1000, rel=0.1)


def test_rtt_measured_correctly():
    loop = EventLoop()
    cc = RecordingCC()
    build_path(loop, cc, rtt=0.02)
    loop.run_until(0.5)
    assert cc.samples, "expected ACKs"
    assert cc.samples[-1].rtt == pytest.approx(0.02, abs=1e-6)


def test_delivery_rate_estimation_converges():
    loop = EventLoop()
    cc = RecordingCC(cwnd_segments=8)
    build_path(loop, cc, rtt=0.02)
    loop.run_until(1.0)
    # 8 packets / 20 ms = 400 KB/s steady state.
    assert cc.samples[-1].delivery_rate == pytest.approx(400_000, rel=0.05)


def test_in_flight_never_negative_and_bounded():
    loop = EventLoop()
    cc = RecordingCC(cwnd_segments=4)
    sender, *_ = build_path(loop, cc)
    loop.run_until(1.0)
    assert 0 <= sender.in_flight_bytes <= cc.cwnd


def test_gap_declares_loss():
    loop = EventLoop()
    cc = RecordingCC(cwnd_segments=8)
    stats = FlowStats(0)
    sent = []
    sender = Sender(loop, 0, cc, lambda p: sent.append(p), stats, 0.0)
    loop.run_until(0.001)  # Window of packets sent.

    def ack_for(p, when):
        return Ack(
            flow_id=0,
            seq=p.seq,
            size=p.size,
            data_sent_time=p.sent_time,
            delivered_at_send=p.delivered_at_send,
            delivered_time_at_send=p.delivered_time_at_send,
            app_limited=False,
            recv_time=when,
        )

    # ACK everything except seq 0; the gap exceeds REORDER_THRESHOLD.
    loop.call_at(0.02, lambda: sender.on_ack(ack_for(sent[1], 0.02)))
    loop.call_at(0.021, lambda: sender.on_ack(ack_for(sent[2], 0.021)))
    loop.call_at(0.022, lambda: sender.on_ack(ack_for(sent[3], 0.022)))
    loop.call_at(0.023, lambda: sender.on_ack(ack_for(sent[4], 0.023)))
    loop.run_until(0.05)
    assert cc.losses, "gap should have been declared a loss"
    assert stats.lost_packets >= 1


def test_small_gaps_tolerated():
    """Gaps smaller than REORDER_THRESHOLD do not trigger losses."""
    assert REORDER_THRESHOLD == 3


def test_rto_fires_on_total_blackhole():
    loop = EventLoop()
    cc = RecordingCC(cwnd_segments=4)
    stats = FlowStats(0)
    # transmit drops everything: no ACKs ever arrive.
    sender = Sender(loop, 0, cc, lambda p: None, stats, 0.0)
    loop.run_until(3.0)
    assert cc.losses, "RTO should have fired"
    assert sender.in_flight_bytes >= 0


def test_sender_restarts_after_rto():
    loop = EventLoop()
    cc = RecordingCC(cwnd_segments=4)
    stats = FlowStats(0)
    sender = Sender(loop, 0, cc, lambda p: None, stats, 0.0)
    loop.run_until(5.0)
    # Keeps retrying: sent more than the initial window.
    assert stats.sent_packets > 4


def test_paced_sender_spreads_transmissions():
    loop = EventLoop()
    cc = RecordingCC(cwnd_segments=100)
    cc.pacing_rate = 100_000.0  # 100 packets/s at mss=1000.
    stats = FlowStats(0)
    times = []
    sender = Sender(
        loop, 0, cc, lambda p: times.append(loop.now), stats, 0.0
    )
    loop.run_until(0.1)
    # Pacing at 100 pkt/s over 100 ms → ~10 sends, not a window burst.
    assert 5 <= len(times) <= 15
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(g >= 0.009 for g in gaps[1:])


def test_flow_start_time_respected():
    loop = EventLoop()
    cc = RecordingCC()
    stats = FlowStats(0)
    sent = []
    Sender(loop, 0, cc, sent.append, stats, start_time=1.0)
    loop.run_until(0.9)
    assert sent == []
    loop.run_until(1.1)
    assert sent
