"""Multi-flow model (§2.4): aggregate bounds and per-flow division."""

import pytest

from repro.core.multi_flow import (
    aggregate_bbr_bandwidth,
    desync_backoff,
    predict_multi_flow,
)
from repro.core.two_flow import predict_two_flow
from repro.util.config import LinkConfig


def link(bdp=5, mbps=100, rtt=40):
    return LinkConfig.from_mbps_ms(mbps, rtt, bdp)


def test_desync_backoff_formula():
    """Equation (22): (N_c − 0.3)/N_c."""
    assert desync_backoff(1) == pytest.approx(0.7)
    assert desync_backoff(5) == pytest.approx(4.7 / 5)
    assert desync_backoff(10) == pytest.approx(9.7 / 10)


def test_desync_backoff_validation():
    with pytest.raises(ValueError):
        desync_backoff(0)


def test_one_cubic_flow_bounds_coincide():
    """With a single CUBIC flow both bounds reduce to the 2-flow model."""
    pred = predict_multi_flow(link(), 1, 1)
    assert pred.bbr_aggregate_sync == pytest.approx(
        pred.bbr_aggregate_desync
    )
    two = predict_two_flow(link())
    assert pred.bbr_aggregate_sync == pytest.approx(two.bbr_bandwidth)


def test_desync_bound_gives_bbr_more():
    """De-synchronized CUBIC keeps the buffer fuller, bloating BBR's RTT
    estimate and raising its bandwidth bound."""
    pred = predict_multi_flow(link(), 5, 5)
    assert pred.bbr_aggregate_desync > pred.bbr_aggregate_sync


def test_aggregates_sum_to_capacity():
    pred = predict_multi_flow(link(), 4, 6)
    c = link().capacity
    assert pred.bbr_aggregate_sync + pred.cubic_aggregate_sync == (
        pytest.approx(c)
    )
    assert pred.bbr_aggregate_desync + pred.cubic_aggregate_desync == (
        pytest.approx(c)
    )


def test_per_flow_division():
    """Equations (23)–(24)."""
    pred = predict_multi_flow(link(), 4, 6)
    assert pred.per_flow_bbr_sync == pytest.approx(
        pred.bbr_aggregate_sync / 6
    )
    assert pred.per_flow_cubic_sync == pytest.approx(
        pred.cubic_aggregate_sync / 4
    )


def test_all_bbr_takes_whole_link():
    pred = predict_multi_flow(link(), 0, 8)
    assert pred.bbr_aggregate_sync == pytest.approx(link().capacity)
    assert pred.per_flow_bbr_sync == pytest.approx(link().capacity / 8)


def test_all_cubic_takes_whole_link():
    pred = predict_multi_flow(link(), 8, 0)
    assert pred.cubic_aggregate_sync == pytest.approx(link().capacity)
    assert pred.per_flow_bbr_sync == 0.0


def test_sync_aggregate_independent_of_counts():
    """The synchronized aggregate behaves like one big CUBIC flow, so the
    bound does not depend on how many flows each class has."""
    a = predict_multi_flow(link(), 2, 3).bbr_aggregate_sync
    b = predict_multi_flow(link(), 9, 1).bbr_aggregate_sync
    assert a == pytest.approx(b)


def test_desync_aggregate_grows_with_cubic_count():
    """More de-synchronized CUBIC flows keep more of the buffer occupied
    after a single-flow backoff."""
    a = predict_multi_flow(link(), 2, 5).bbr_aggregate_desync
    b = predict_multi_flow(link(), 20, 5).bbr_aggregate_desync
    assert b > a


def test_diminishing_returns_per_flow():
    """The paper's central observation (§3.3): BBR's per-flow bandwidth
    falls as the proportion of BBR flows rises."""
    n = 10
    values = [
        predict_multi_flow(link(3), n - k, k).per_flow_bbr_desync
        for k in range(1, n)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_validation():
    with pytest.raises(ValueError):
        predict_multi_flow(link(), -1, 5)
    with pytest.raises(ValueError):
        predict_multi_flow(link(), 0, 0)


def test_aggregate_bbr_bandwidth_all_bbr():
    assert aggregate_bbr_bandwidth(link(), 0, 0.7) == link().capacity
