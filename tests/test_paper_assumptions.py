"""The model's six §2.3 assumptions, verified against the simulators.

The paper's model is only as good as its assumptions; this module pins
each one empirically so that a future change to the simulators or CCAs
that silently breaks an assumption fails loudly here.
"""

import pytest

from repro.fluidsim import FluidSimulation, FluidSpec
from repro.obs import Telemetry
from repro.sim.network import DumbbellNetwork, FlowSpec, run_dumbbell
from repro.util.config import LinkConfig


@pytest.fixture(scope="module")
def traced_mixed_run():
    """1 CUBIC vs 1 BBR on a 20 Mbps / 40 ms / 5 BDP link, 60 s, with
    the BBR flow's samples every 0.2 s."""
    link = LinkConfig.from_mbps_ms(20, 40, 5)
    obs = Telemetry(sample_interval=0.2)
    net = DumbbellNetwork(
        link, [FlowSpec("cubic"), FlowSpec("bbr")], obs=obs
    )
    result = net.run(60, warmup=10)
    bbr = [s for s in obs.samples if s["flow_id"] == 1]
    return link, net, bbr, result


def test_assumption1_link_fully_utilized(traced_mixed_run):
    """Assumption 1: with a ≥1 BDP buffer and a CUBIC flow present, the
    link stays (nearly) fully utilized."""
    link, _net, _bbr, result = traced_mixed_run
    assert result.aggregate_throughput() >= 0.92 * link.capacity


def test_assumption1_buffer_never_empty(traced_mixed_run):
    """...and there are always packets in the buffer (on average a
    substantial fraction of it)."""
    link, net, _bbr, _result = traced_mixed_run
    mean_queue = net.bottleneck.stats.mean_occupancy(60)
    assert mean_queue > 0.2 * link.buffer_bytes


def test_assumption2_bbr_cwnd_bound(traced_mixed_run):
    """Assumption 2: competing with CUBIC, BBR is cwnd-bound with about
    2×(estimated BDP) in flight — equivalently cwnd ≈ 2·bw_est·RTT⁺."""
    _link, net, samples, _result = traced_mixed_run
    bbr = net.senders[1].cc
    assert bbr.rtprop is not None and bbr.btl_bw > 0
    expected_cap = 2.0 * bbr.btl_bw * bbr.rtprop
    assert net.senders[1].cc.cwnd == pytest.approx(expected_cap, rel=0.3)
    # And the sender actually rides the cap: median in-flight within a
    # factor of the cwnd in steady state.
    steady = [
        s for s in samples if s["time"] > 20 and s["state"] == "PROBE_BW"
    ]
    riding = sum(1 for s in steady if s["in_flight"] >= 0.5 * s["cwnd"])
    assert riding >= 0.6 * len(steady)


def test_assumption4_bbr_loss_agnostic():
    """Assumption 4: BBRv1 does not react to loss (direct check)."""
    from repro.cc import make_controller
    from repro.cc.signals import LossEvent

    cc = make_controller("bbr")
    cwnd = cc.cwnd
    for i in range(50):
        cc.on_loss(
            LossEvent(lost_bytes=15_000, in_flight=10_000, now=float(i))
        )
    assert cc.cwnd == cwnd


def test_assumption5_probe_rtt_time_negligible(traced_mixed_run):
    """Assumption 5: ProbeRTT occupies ~200 ms per 10 s — a few percent
    of the flow's lifetime."""
    _link, _net, samples, _result = traced_mixed_run
    probe_rtt = sum(1 for s in samples if s["state"] == "PROBE_RTT")
    probe_fraction = probe_rtt / len(samples)
    assert probe_fraction < 0.12  # Generous: sampling quantizes at 0.2 s.
    assert probe_fraction > 0.0   # But it does happen.


def test_assumption6_equal_rtts_default():
    """Assumption 6 is a *setup* choice: both simulators default every
    flow to the link's base RTT unless told otherwise."""
    link = LinkConfig.from_mbps_ms(20, 40, 3)
    result = run_dumbbell(
        link, [FlowSpec("cubic"), FlowSpec("bbr")], duration=5
    )
    rtts = [f.min_rtt for f in result.flows]
    assert rtts[0] == pytest.approx(rtts[1], rel=0.1)


def test_assumption3_drops_proportional_to_share():
    """Assumption 3 (uniform mixing in the buffer) is what justifies
    charging fluid drops in proportion to in-flight share; check the
    fluid simulator distributes losses that way between two identical
    CUBIC flows."""
    link = LinkConfig.from_mbps_ms(50, 40, 3)
    sim = FluidSimulation(
        link,
        [FluidSpec("cubic"), FluidSpec("cubic")],
        seed=5,
        start_jitter=0.5,
    )
    sim.run(90)
    lost = sim._lost
    assert all(l > 0 for l in lost)
    # Identical flows: cumulative drops within a small factor.
    assert max(lost) / min(lost) < 2.5
