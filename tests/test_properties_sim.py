"""Property-based tests for the simulators (hypothesis).

Shorter horizons than the scenario tests — the point is invariants under
*randomized* configurations, not steady-state accuracy.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fluidsim import FluidSpec, run_fluid
from repro.sim.engine import EventLoop
from repro.sim.network import FlowPath
from repro.sim.packet import Packet
from repro.sim.stats import FlowStats
from repro.util.config import LinkConfig

CC_NAMES = ("cubic", "reno", "bbr", "bbr2", "copa", "vivace", "vegas")


def make_packet(seq, size):
    return Packet(0, seq, size, 0.0, 0, 0.0, False, False)


@st.composite
def flow_mixes(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    return [
        FluidSpec(draw(st.sampled_from(CC_NAMES)))
        for _ in range(n)
    ]


@st.composite
def links(draw):
    return LinkConfig.from_mbps_ms(
        draw(st.floats(min_value=5, max_value=200)),
        draw(st.floats(min_value=5, max_value=100)),
        draw(st.floats(min_value=1.2, max_value=20)),
    )


@given(links(), flow_mixes(), st.integers(min_value=0, max_value=100))
@settings(max_examples=25, deadline=None)
def test_fluid_conservation_and_bounds(link, specs, seed):
    """For any mix of any CCAs on any link: throughput never exceeds
    capacity, the queue respects the buffer, per-flow rates are
    non-negative, and delivered bytes are finite."""
    result = run_fluid(
        link, specs, duration=15, seed=seed, start_jitter=0.5
    )
    assert result.aggregate_throughput() <= link.capacity * 1.001
    assert 0 <= result.mean_queuing_delay <= link.max_queuing_delay * 1.001
    for flow in result.flows:
        assert flow.throughput >= 0
        assert flow.delivered_bytes >= 0
        assert 0 <= flow.loss_rate <= 1


@given(links(), flow_mixes(), st.integers(min_value=0, max_value=100))
@settings(max_examples=10, deadline=None)
def test_fluid_determinism(link, specs, seed):
    """Same seed → bit-identical outcome (the reproducibility contract
    behind the paper's multi-trial methodology)."""
    a = run_fluid(link, specs, duration=10, seed=seed, start_jitter=0.5)
    b = run_fluid(link, specs, duration=10, seed=seed, start_jitter=0.5)
    assert [f.throughput for f in a.flows] == [
        f.throughput for f in b.flows
    ]


@given(
    st.lists(
        st.floats(min_value=0, max_value=100),
        min_size=1,
        max_size=100,
    )
)
def test_event_loop_runs_any_schedule_in_order(times):
    loop = EventLoop()
    fired = []
    for t in times:
        loop.call_at(t, lambda t=t: fired.append(t))
    loop.run_until(101.0)
    assert fired == sorted(times)
    assert len(fired) == len(times)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=5.0),  # departure time
            st.integers(min_value=1, max_value=1000),  # payload size
        ),
        min_size=1,
        max_size=50,
    ),
    st.floats(min_value=0.0, max_value=8.0),
)
def test_flow_path_is_order_preserving(items, horizon):
    """A flow path acknowledges everything, in departure order, each
    exactly half an RTT + half an RTT after it left the bottleneck —
    and at any horizon the receiver has on record exactly what arrived
    by then, whether or not its ACK has."""
    loop = EventLoop()
    stats = FlowStats(0)
    acks = []
    path = FlowPath(loop, 1.0, stats, lambda a: acks.append((loop.now, a)))
    for seq, (when, size) in enumerate(items):
        loop.call_at(when, path.forward, make_packet(seq, size))
    loop.run_until(horizon)
    path.settle(loop.now)
    assert stats.delivered_bytes == sum(
        size for when, size in items if when + 0.5 <= horizon
    )
    loop.run_until(100.0)
    path.settle(loop.now)
    departures = sorted(
        (when, seq) for seq, (when, _) in enumerate(items)
    )
    assert [ack.seq for _, ack in acks] == [seq for _, seq in departures]
    assert [(now, ack.recv_time) for now, ack in acks] == [
        ((when + 0.5) + 0.5, when + 0.5) for when, _ in departures
    ]
    assert stats.delivered_bytes == sum(size for _, size in items)
