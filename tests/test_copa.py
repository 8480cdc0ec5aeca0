"""Copa: delay-targeted rate control."""

import pytest

from repro.cc.copa import Copa


def test_grows_when_queue_empty(driver_factory):
    """With RTT at the minimum (no queue), the target rate is unbounded
    and Copa opens its window."""
    cc = Copa(mss=1000)
    d = driver_factory(cc, rate=1.25e6, rtt=0.04)
    start = cc.cwnd
    d.acks(100, rtt=0.04)
    assert cc.cwnd > start


def test_backs_off_when_queue_delay_high(driver_factory):
    """Once queuing delay exceeds the 1/(δ·dq) target, Copa closes."""
    cc = Copa(mss=1000)
    d = driver_factory(cc, rate=1.25e6, rtt=0.04)
    d.acks(20, rtt=0.04)          # Establish RTT_min = 40 ms.
    cc.cwnd = 200_000             # Large window...
    d.acks(300, rtt=0.30)         # ...and a massively bloated RTT.
    assert cc.cwnd < 200_000


def test_loss_halves_window(driver_factory):
    cc = Copa(mss=1000)
    d = driver_factory(cc)
    d.acks(50)
    before = cc.cwnd
    d.lose()
    assert cc.cwnd == pytest.approx(before / 2, rel=0.01)
    assert cc.velocity == 1.0


def test_loss_gated_per_rtt(driver_factory):
    cc = Copa(mss=1000)
    d = driver_factory(cc)
    d.acks(50)
    before = cc.cwnd
    d.lose()
    d.lose()
    assert cc.cwnd == pytest.approx(before / 2, rel=0.01)


def test_velocity_doubles_with_consistent_direction(driver_factory):
    cc = Copa(mss=1000)
    d = driver_factory(cc, rate=1.25e6, rtt=0.04)
    d.run_for(1.0, rtt=0.04)  # Consistently opening.
    assert cc.velocity > 1.0


def test_velocity_resets_on_direction_flip(driver_factory):
    cc = Copa(mss=1000)
    d = driver_factory(cc, rate=1.25e6, rtt=0.04)
    d.run_for(1.0, rtt=0.04)
    assert cc.velocity > 1.0
    cc.cwnd = 500_000
    d.acks(50, rtt=0.5)  # Force closing.
    assert cc.velocity == 1.0


def test_pacing_rate_set(driver_factory):
    cc = Copa(mss=1000)
    d = driver_factory(cc)
    d.acks(10)
    assert cc.pacing_rate is not None and cc.pacing_rate > 0
