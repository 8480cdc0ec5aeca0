"""Dumbbell network integration: utilization, fairness, queue behaviour.

These run the full packet-level stack on small links so they stay fast.
"""

import pytest

from repro.check import Checker
from repro.obs.bus import Telemetry
from repro.sim.engine import EventLoop
from repro.sim.network import (
    DumbbellNetwork,
    FlowPath,
    FlowSpec,
    run_dumbbell,
)
from repro.sim.packet import Packet
from repro.sim.stats import FlowStats
from repro.util.config import LinkConfig
from tests.identity import load

#: Inputs, and outputs at the commit before the two-event model.
PINNED = {case["name"]: case for case in load("sim")["cases"]}


@pytest.fixture(scope="module")
def reno_pair_result():
    link = LinkConfig.from_mbps_ms(10, 20, 3)
    return run_dumbbell(
        link,
        [FlowSpec("reno"), FlowSpec("reno")],
        duration=30,
        warmup=5,
    )


def test_link_fully_utilized(reno_pair_result):
    total = reno_pair_result.aggregate_throughput() * 8 / 1e6
    assert total == pytest.approx(10.0, rel=0.1)


def test_symmetric_flows_share_fairly(reno_pair_result):
    a, b = (f.throughput for f in reno_pair_result.flows)
    assert a / b == pytest.approx(1.0, abs=0.35)


def test_no_flow_exceeds_capacity(reno_pair_result):
    for flow in reno_pair_result.flows:
        assert flow.throughput <= 10e6 / 8 * 1.01


def test_single_cubic_fills_link():
    link = LinkConfig.from_mbps_ms(10, 20, 2)
    result = run_dumbbell(link, [FlowSpec("cubic")], duration=20, warmup=5)
    assert result.flows[0].throughput_mbps == pytest.approx(10.0, rel=0.08)


def test_single_bbr_fills_link_with_low_delay():
    link = LinkConfig.from_mbps_ms(10, 20, 10)
    result = run_dumbbell(link, [FlowSpec("bbr")], duration=20, warmup=5)
    assert result.flows[0].throughput_mbps == pytest.approx(10.0, rel=0.1)
    # Alone, BBR keeps the queue near-empty (≤ ~1 BDP on average),
    # unlike CUBIC which fills the buffer.
    assert result.mean_queuing_delay < 0.040


def test_cubic_fills_buffer_alone():
    link = LinkConfig.from_mbps_ms(10, 20, 5)
    result = run_dumbbell(link, [FlowSpec("cubic")], duration=30, warmup=5)
    # CUBIC's sawtooth keeps the buffer mostly occupied.
    assert result.mean_queuing_delay > 0.3 * link.max_queuing_delay


def test_min_rtt_close_to_base_rtt():
    link = LinkConfig.from_mbps_ms(10, 20, 3)
    result = run_dumbbell(link, [FlowSpec("cubic")], duration=10)
    # Serialization adds a little; propagation dominates.
    assert result.flows[0].min_rtt == pytest.approx(0.020, rel=0.15)


def test_per_flow_rtt_override():
    link = LinkConfig.from_mbps_ms(10, 20, 3)
    net = DumbbellNetwork(
        link,
        [FlowSpec("cubic", rtt=0.080), FlowSpec("cubic")],
    )
    result = net.run(10)
    assert result.flows[0].min_rtt == pytest.approx(0.080, rel=0.1)
    assert result.flows[1].min_rtt == pytest.approx(0.020, rel=0.2)


def test_short_rtt_cubic_beats_long_rtt_cubic():
    """Known CUBIC RTT-unfairness (§4.5): shorter RTT wins."""
    link = LinkConfig.from_mbps_ms(10, 20, 3)
    result = run_dumbbell(
        link,
        [FlowSpec("cubic", rtt=0.010), FlowSpec("cubic", rtt=0.080)],
        duration=30,
        warmup=5,
    )
    short, long_ = result.flows
    assert short.throughput > long_.throughput


def test_staggered_start():
    link = LinkConfig.from_mbps_ms(10, 20, 3)
    result = run_dumbbell(
        link,
        [FlowSpec("cubic"), FlowSpec("cubic", start_time=5.0)],
        duration=20,
    )
    first, second = result.flows
    assert first.delivered_bytes > second.delivered_bytes


def test_by_cc_and_means():
    link = LinkConfig.from_mbps_ms(10, 20, 3)
    result = run_dumbbell(
        link,
        [FlowSpec("cubic"), FlowSpec("cubic"), FlowSpec("bbr")],
        duration=15,
    )
    assert len(result.by_cc("cubic")) == 2
    assert len(result.by_cc("bbr")) == 1
    assert result.mean_throughput("cubic") == pytest.approx(
        result.aggregate_throughput("cubic") / 2
    )


def test_losses_occur_at_droptail_bottleneck():
    link = LinkConfig.from_mbps_ms(10, 20, 2)
    result = run_dumbbell(link, [FlowSpec("cubic")], duration=20)
    assert result.drop_rate > 0
    assert result.flows[0].loss_rate > 0


def test_validation_errors():
    link = LinkConfig.from_mbps_ms(10, 20, 3)
    with pytest.raises(ValueError):
        DumbbellNetwork(link, [])
    net = DumbbellNetwork(link, [FlowSpec("cubic")])
    with pytest.raises(ValueError):
        net.run(duration=0)
    net = DumbbellNetwork(link, [FlowSpec("cubic")])
    with pytest.raises(ValueError):
        net.run(duration=10, warmup=10)
    with pytest.raises(ValueError):
        DumbbellNetwork(link, [FlowSpec("cubic", rtt=-1.0)])


# -- the event model: two events per packet, one path ----------------------


def make_packet(seq=0, size=1000):
    return Packet(0, seq, size, 0.0, 0, 0.0, False, False)


def test_flow_path_acks_one_rtt_after_departure():
    loop = EventLoop()
    stats = FlowStats(0)
    acks = []
    path = FlowPath(loop, 0.04, stats, acks.append)
    path.forward(make_packet())
    loop.run_until(0.039)
    assert acks == [] and loop.pending() == 1  # One event, the ACK's.
    path.settle(loop.now)
    assert stats.delivered_bytes == 1000  # At the receiver since 0.02.
    loop.run_until(0.041)
    [ack] = acks
    assert (ack.seq, ack.size, ack.recv_time) == (0, 1000, 0.02)
    path.settle(loop.now)
    assert stats.delivered_bytes == 1000  # Settled once, not twice.


def test_flow_path_preserves_order():
    loop = EventLoop()
    acks = []
    path = FlowPath(loop, 0.02, FlowStats(0), acks.append)
    for seq in range(5):
        path.forward(make_packet(seq))
    loop.run_until(1.0)
    assert [ack.seq for ack in acks] == [0, 1, 2, 3, 4]


def test_flow_path_rejects_nonpositive_rtt():
    for rtt in (0.0, -0.1):
        with pytest.raises(ValueError):
            FlowPath(EventLoop(), rtt, FlowStats(0), print)


def _benchmark_leg(**instruments):
    case = PINNED["benchmark-leg"]
    link = LinkConfig.from_mbps_ms(**case["link"])
    flows = [FlowSpec(**flow) for flow in case["flows"]]
    return run_dumbbell(
        link, flows, duration=case["duration"], **instruments
    )


def test_a_forwarded_packet_costs_two_events():
    # The benchmark's sim leg: 1 CUBIC + 1 BBR, 25 Mbps / 40 ms / 2 BDP.
    # Service completion + ACK arrival, plus pacing and RTO timers.
    result = _benchmark_leg()
    packets = sum(flow.delivered_bytes for flow in result.flows) / 1500
    assert result.events_processed / packets <= 2.2


def test_instrumented_and_sanitized_runs_take_the_same_path():
    plain = _benchmark_leg()
    traced = _benchmark_leg(obs=Telemetry())
    checked = _benchmark_leg(check=Checker())
    assert traced.events_processed == plain.events_processed
    assert checked.events_processed == plain.events_processed
    assert traced.flows == plain.flows
    assert checked.flows == plain.flows


def test_deliveries_whose_ack_is_still_under_way_are_counted():
    # 1 s at 100 ms RTT: whatever reached the receiver in the last 50 ms
    # has no ACK at the sender yet when the run ends, and no event of
    # its own either — it must be on the receiver's record all the same.
    case = PINNED["short-long-rtt"]
    net = DumbbellNetwork(
        LinkConfig.from_mbps_ms(**case["link"]),
        [FlowSpec(**flow) for flow in case["flows"]],
    )
    result = net.run(case["duration"])
    for flow, sender, pinned in zip(
        result.flows, net.senders, case["result"]["flows"]
    ):
        assert flow.delivered_bytes == pinned["delivered_bytes"]
        assert flow.throughput * result.duration == flow.delivered_bytes
        unacked = flow.delivered_bytes - sender._delivered
        assert unacked >= 0.02 * flow.delivered_bytes
