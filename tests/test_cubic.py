"""CUBIC: Equation (1) window curve, 0.7 backoff, fast convergence."""

import pytest

from repro.cc.cubic import BETA_CUBIC, C_CUBIC, Cubic
from repro.cc.laws import cubic as laws
from repro.cc.signals import LossEvent


def loss(now, in_flight=100_000):
    return LossEvent(lost_bytes=1500, in_flight=in_flight, now=now)


def test_paper_constants():
    # §2.1: "CUBIC's implementation in the Linux kernel sets C=0.4,
    # beta_cubic=0.3" (i.e. it reduces *to* 0.7).
    assert C_CUBIC == 0.4
    assert BETA_CUBIC == 0.7


def test_backoff_to_seventy_percent(driver_factory):
    cc = Cubic(mss=1000, fast_convergence=False)
    d = driver_factory(cc)
    d.acks(50)
    before = cc.cwnd
    d.lose()
    assert cc.cwnd == pytest.approx(before * 0.7)


def test_slow_start_until_first_loss(driver_factory):
    cc = Cubic(mss=1000)
    d = driver_factory(cc)
    start = cc.cwnd
    d.acks(10)
    assert cc.cwnd == start + 10_000  # One segment per ACK.


def test_w_max_recorded_on_loss(driver_factory):
    cc = Cubic(mss=1000, fast_convergence=False)
    d = driver_factory(cc)
    d.acks(40)
    w = cc.cwnd_segments
    d.lose()
    assert cc.w_max_segments == pytest.approx(w)


def test_fast_convergence_reduces_w_max(driver_factory):
    cc = Cubic(mss=1000, fast_convergence=True)
    d = driver_factory(cc)
    d.acks(40)
    d.lose()
    w_after_first = cc.w_max_segments
    # Lose again below the previous W_max: fast convergence kicks in.
    d.run_for(0.1)
    w_at_loss = cc.cwnd_segments
    assert w_at_loss < w_after_first
    d.lose()
    assert cc.w_max_segments == pytest.approx(
        w_at_loss * (2.0 - BETA_CUBIC) / 2.0
    )


def test_cubic_window_function_shape():
    """The curve is concave-then-convex around K with plateau at W_max."""
    k = (100.0 * (1 - BETA_CUBIC) / C_CUBIC) ** (1 / 3)
    at_k = laws.window(k, k, 100.0)
    assert at_k == pytest.approx(100.0)
    # Before K: below W_max.  After K: above.
    assert laws.window(k - 1.0, k, 100.0) < 100.0
    assert laws.window(k + 1.0, k, 100.0) > 100.0


def test_k_formula():
    """K = cbrt(W_max(1-beta)/C) — time to return to W_max."""
    cc = Cubic(mss=1000, fast_convergence=False)
    cc.cwnd = 100 * 1000
    cc.ssthresh = cc.cwnd
    cc.on_loss(loss(now=1.0))
    expected_k = (100.0 * (1 - BETA_CUBIC) / C_CUBIC) ** (1 / 3)
    assert cc._k == pytest.approx(expected_k)


def test_recovers_toward_w_max_after_k_seconds(driver_factory):
    cc = Cubic(mss=1000, tcp_friendly=False)
    d = driver_factory(cc, rate=2e6, rtt=0.02)
    d.acks(60)
    w_max = cc.cwnd
    d.lose()
    k = cc._k
    d.run_for(k + 0.1)
    # After K seconds of growth the window is back near W_max.
    assert cc.cwnd == pytest.approx(w_max, rel=0.15)


def test_growth_is_slow_near_w_max(driver_factory):
    """The cubic plateau: growth rate is smallest around W_max."""
    cc = Cubic(mss=1000, tcp_friendly=False)
    d = driver_factory(cc, rate=2e6, rtt=0.02)
    d.acks(60)
    d.lose()
    k = cc._k
    # Growth in the first tenth of the epoch...
    start = cc.cwnd
    d.run_for(k / 10)
    early_growth = cc.cwnd - start
    # ...versus growth around the inflection point K.
    d.run_for(k - k / 5)
    start = cc.cwnd
    d.run_for(k / 10)
    plateau_growth = cc.cwnd - start
    assert plateau_growth < early_growth


def test_loss_events_gated_per_rtt(driver_factory):
    cc = Cubic(mss=1000)
    d = driver_factory(cc)
    d.acks(50)
    before = cc.cwnd
    d.lose()
    d.lose()
    d.lose()
    assert cc.cwnd == pytest.approx(before * 0.7)


def test_tcp_friendly_floor(driver_factory):
    """With the Reno-emulation region the window at least matches W_est."""
    cc = Cubic(mss=1000, tcp_friendly=True)
    d = driver_factory(cc, rate=1e6, rtt=0.1)
    d.acks(30)
    d.lose()
    w_max = cc.w_max_segments
    d.run_for(0.5)
    t = 0.5
    w_est = w_max * BETA_CUBIC + (3 * 0.3 / 1.7) * (t / 0.1)
    assert cc.cwnd_segments >= w_est * 0.8  # Allow srtt jitter.


def test_window_floor_respected(driver_factory):
    cc = Cubic(mss=1000)
    d = driver_factory(cc)
    for _ in range(30):
        d.lose()
        d.run_for(0.2)
    assert cc.cwnd >= cc.min_cwnd
