"""Edge cases across the public API: degenerate sizes and extremes."""

import pytest

from repro.core.game import ThroughputTable, bisect_nash
from repro.core.multi_flow import predict_multi_flow
from repro.core.nash import predict_nash
from repro.core.two_flow import predict_two_flow
from repro.util.config import LinkConfig


def test_single_flow_game():
    """n = 1: the lone flow picks whichever CCA gives it the link; both
    give the whole link, so both pure states are NE."""
    table = ThroughputTable(
        n_flows=1, lambda_a=[100.0, 0.0], lambda_b=[0.0, 100.0]
    )
    assert table.game().nash_equilibria() == [(0,), (1,)]


def test_bisect_on_two_flow_game():
    table = ThroughputTable(
        n_flows=2,
        lambda_a=[50.0, 30.0, 0.0],
        lambda_b=[0.0, 70.0, 50.0],
    )
    equilibria, _ = bisect_nash(table.game())
    assert equilibria == [k for (k,) in table.game().nash_equilibria()]


def test_nash_with_one_flow():
    link = LinkConfig.from_mbps_ms(100, 40, 5)
    pred = predict_nash(link, 1)
    assert 0 <= pred.n_bbr_sync <= 1
    assert 0 <= pred.n_bbr_desync <= 1


def test_model_on_tiny_and_huge_links():
    for mbps, rtt in ((0.1, 1), (10_000, 500)):
        link = LinkConfig.from_mbps_ms(mbps, rtt, 5)
        pred = predict_two_flow(link)
        assert 0 <= pred.bbr_fraction <= 1
        # Scale invariance means the fraction matches the canonical link.
        canonical = predict_two_flow(LinkConfig.from_mbps_ms(100, 40, 5))
        assert pred.bbr_fraction == pytest.approx(
            canonical.bbr_fraction, rel=1e-9
        )


def test_buffer_exactly_one_bdp():
    link = LinkConfig.from_mbps_ms(100, 40, 1.0)
    pred = predict_two_flow(link)
    # Degenerate edge of the validity domain: BBR gets everything.
    assert pred.bbr_fraction == pytest.approx(1.0)


def test_multi_flow_one_versus_many():
    link = LinkConfig.from_mbps_ms(100, 40, 5)
    pred = predict_multi_flow(link, 99, 1)
    assert 0 < pred.per_flow_bbr_desync
    assert pred.per_flow_cubic_sync < link.capacity / 50


def test_fractional_bdp_buffers_rejected_only_if_nonpositive():
    with pytest.raises(ValueError):
        LinkConfig.from_mbps_ms(100, 40, 0)
    # 0.5 BDP is legal (Figure 9 sweeps it) — just out of model range.
    pred = predict_two_flow(LinkConfig.from_mbps_ms(100, 40, 0.5))
    assert not pred.in_validity_range


def test_throughput_table_with_flat_payoffs():
    """All-equal payoffs: every distribution is an NE (nobody gains)."""
    n = 5
    table = ThroughputTable(
        n_flows=n, lambda_a=[10.0] * (n + 1), lambda_b=[10.0] * (n + 1)
    )
    game = table.game()
    assert game.nash_equilibria() == [(k,) for k in range(n + 1)]
    # Best response never moves.
    for start in game.states():
        assert game.best_response_path(start) == [start]
