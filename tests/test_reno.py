"""Reno AIMD behaviour."""

import pytest

from repro.cc.reno import Reno


def test_slow_start_doubles_per_rtt(driver_factory):
    cc = Reno(mss=1000)
    d = driver_factory(cc, rate=1e6, rtt=0.04)
    start = cc.cwnd
    # One window's worth of ACKs ≈ one RTT of slow start.
    d.acks(int(start / 1000))
    assert cc.cwnd == pytest.approx(2 * start)


def test_congestion_avoidance_one_mss_per_rtt(driver_factory):
    cc = Reno(mss=1000)
    cc.ssthresh = cc.cwnd  # Force congestion avoidance.
    d = driver_factory(cc, rate=1e6, rtt=0.04)
    start = cc.cwnd
    d.acks(int(start / 1000))
    assert cc.cwnd == pytest.approx(start + 1000, rel=0.01)


def test_loss_halves_window(driver_factory):
    cc = Reno(mss=1000)
    d = driver_factory(cc)
    d.acks(20)
    before = cc.cwnd
    d.lose()
    assert cc.cwnd == pytest.approx(before / 2)
    assert cc.ssthresh == cc.cwnd


def test_losses_within_one_rtt_count_once(driver_factory):
    cc = Reno(mss=1000)
    d = driver_factory(cc, rtt=0.04)
    d.acks(50)
    before = cc.cwnd
    d.lose()
    d.lose()  # Same congestion event (no time has passed).
    assert cc.cwnd == pytest.approx(before / 2)


def test_separate_congestion_events_compound(driver_factory):
    cc = Reno(mss=1000)
    d = driver_factory(cc, rate=1e7, rtt=0.01)
    d.acks(100)
    before = cc.cwnd
    d.lose()
    d.run_for(0.1)  # Far more than one RTT.
    d.lose()
    assert cc.cwnd < before / 2


def test_window_never_below_floor(driver_factory):
    cc = Reno(mss=1000)
    d = driver_factory(cc)
    for _ in range(20):
        d.lose()
        d.run_for(0.1)
    assert cc.cwnd >= cc.min_cwnd
