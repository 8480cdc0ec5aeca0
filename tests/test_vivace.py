"""PCC Vivace: monitor intervals and utility-gradient rate control."""

import pytest

from repro.cc.vivace import EPSILON, Vivace


def test_utility_monotone_in_rate_without_penalties():
    cc = Vivace()
    assert cc.utility(2e6, 0.0, 0.0) > cc.utility(1e6, 0.0, 0.0)


def test_utility_penalizes_loss():
    cc = Vivace()
    assert cc.utility(1e6, 0.0, 0.10) < cc.utility(1e6, 0.0, 0.0)


def test_latency_variant_penalizes_rtt_gradient():
    cc = Vivace(latency_coeff=900.0)
    assert cc.utility(1e6, 0.05, 0.0) < cc.utility(1e6, 0.0, 0.0)


def test_default_variant_is_loss_based():
    """Vivace-Loss (b = 0) reproduces the paper's Figure-7 behaviour."""
    cc = Vivace()
    assert cc.latency_coeff == 0.0
    assert cc.utility(1e6, 0.05, 0.0) == cc.utility(1e6, 0.0, 0.0)


def test_utility_zero_at_zero_rate():
    assert Vivace().utility(0.0, 0.0, 0.0) == 0.0


def test_rate_grows_on_clean_path(driver_factory):
    cc = Vivace(mss=1000, initial_rate=125_000.0)
    d = driver_factory(cc, rate=125_000.0, rtt=0.04)
    # Self-clocked pipe: delivery follows the pacer's probe rate.
    for _ in range(5000):
        d.rate = max(cc.pacing_rate or 125_000.0, 15_000.0)
        d.ack(delivery_rate=d.rate)
    assert cc.rate > 125_000.0


def test_probe_rates_bracket_base_rate(driver_factory):
    cc = Vivace(mss=1000, initial_rate=1e6)
    assert cc._probe_rate() == pytest.approx(1e6 * (1 + EPSILON))
    cc._mi_phase = 1
    assert cc._probe_rate() == pytest.approx(1e6 * (1 - EPSILON))


def test_amplifier_grows_with_consistent_direction(driver_factory):
    cc = Vivace(mss=1000, initial_rate=125_000.0)
    d = driver_factory(cc, rate=125_000.0, rtt=0.04)
    for _ in range(5000):
        d.rate = max(cc.pacing_rate or 125_000.0, 15_000.0)
        d.ack(delivery_rate=d.rate)
    assert cc._amplifier > 1.0


def test_losses_recorded_into_mi(driver_factory):
    cc = Vivace(mss=1000)
    d = driver_factory(cc)
    d.acks(3)
    d.lose(packets=4)
    assert cc._mi_lost == 4


def test_cwnd_tracks_pacing(driver_factory):
    cc = Vivace(mss=1000)
    d = driver_factory(cc, rate=1.25e6, rtt=0.04)
    d.run_for(1.0)
    assert cc.cwnd >= 2.0 * cc.pacing_rate * 0.04 * 0.5


def test_invalid_initial_rate():
    with pytest.raises(ValueError):
        Vivace(initial_rate=0.0)


def test_rate_floor_never_violated(driver_factory):
    from repro.cc.vivace import MIN_RATE

    cc = Vivace(mss=1000, initial_rate=125_000.0, latency_coeff=900.0)
    d = driver_factory(cc, rate=1.25e6, rtt=0.04)
    # Punish relentlessly with rising RTT: rate must stop at the floor.
    rtt = 0.04
    for _ in range(2000):
        rtt += 0.0005
        d.ack(rtt=rtt)
    assert cc.rate >= MIN_RATE


@pytest.mark.xfail(
    strict=True,
    reason="Vivace.on_loss charges a loss to the monitor interval in "
    "which it is detected, one RTT after the interval that caused it: "
    "the r(1-eps) interval pays for the r(1+eps) interval's drops, "
    "u+ > u- for ever, and nothing caps the rate (ROADMAP item 4)",
)
def test_packet_rate_stays_near_capacity_in_a_shallow_codel_buffer():
    """A Vivace flow sharing a 0.5-BDP CoDel link with BBR and CUBIC
    must not run away.  Today every gradient step from t ~ 1.7 s is +1
    at amplifier 8: the rate is 10.4x capacity at 2.6 s (where this
    stops; it costs ~30 ms), 11 GB/s on the 1.25 MB/s link at 3.8 s,
    and the 6 s run never finishes."""
    from repro.scenario import BottleneckSpec
    from repro.sim import DumbbellNetwork, FlowSpec

    link = BottleneckSpec.from_mbps_ms(10, 20, 0.5, aqm="codel")
    net = DumbbellNetwork(
        link, [FlowSpec("vivace"), FlowSpec("bbr"), FlowSpec("cubic")]
    )
    net.loop.run_until(2.6)
    assert net.senders[0].cc.rate <= 4 * link.capacity
