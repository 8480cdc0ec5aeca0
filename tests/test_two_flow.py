"""The paper's 2-flow model (§2.3): algebra, invariants, known values."""


import pytest

from repro.core.two_flow import (
    CUBIC_BACKOFF,
    ModelPrediction,
    predict_two_flow,
    solve_bbr_buffer_share,
)
from repro.util.config import LinkConfig


def link(bdp, mbps=100, rtt=40):
    return LinkConfig.from_mbps_ms(mbps, rtt, bdp)


def test_equation18_residual_is_zero():
    """The returned b_b actually satisfies Equation (18)."""
    cfg = link(7)
    b = cfg.buffer_bytes
    k = cfg.bdp_bytes
    h = (b - k) / 2
    bb = solve_bbr_buffer_share(cfg)
    lhs = h + h * k / (h + bb)
    rhs = CUBIC_BACKOFF * (b - bb) * (1 + k / b)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_quadratic_matches_bisection():
    """Closed form agrees with a direct bisection of Eq. (18)."""
    for bdp in (1.5, 2, 5, 10, 30, 80):
        cfg = link(bdp)
        b, k = cfg.buffer_bytes, cfg.bdp_bytes
        h = (b - k) / 2
        g = CUBIC_BACKOFF * (1 + k / b)
        lo, hi = 0.0, b
        for _ in range(200):
            mid = (lo + hi) / 2
            f = h + h * k / (h + mid) - g * (b - mid)
            if f < 0:
                lo = mid
            else:
                hi = mid
        assert solve_bbr_buffer_share(cfg) == pytest.approx(
            (lo + hi) / 2, rel=1e-6
        )


def test_bandwidths_sum_to_capacity():
    """Equation (20): λ_b = C − λ_c (assumption 1: full utilization)."""
    for bdp in (1.2, 2, 5, 10, 25, 50):
        pred = predict_two_flow(link(bdp))
        total = pred.bbr_bandwidth + pred.cubic_bandwidth
        assert total == pytest.approx(link(bdp).capacity, rel=1e-9)


def test_buffer_shares_sum_to_buffer():
    pred = predict_two_flow(link(8))
    assert pred.bbr_buffer + pred.cubic_buffer == pytest.approx(
        link(8).buffer_bytes
    )


def test_bbr_share_decreases_with_buffer_depth():
    """Figure 3's headline shape: deeper buffers favour CUBIC."""
    shares = [
        predict_two_flow(link(bdp)).bbr_fraction
        for bdp in (1.5, 2, 3, 5, 10, 20, 40)
    ]
    assert all(a > b for a, b in zip(shares, shares[1:]))


def test_bbr_dominates_in_shallow_buffers():
    assert predict_two_flow(link(1.2)).bbr_fraction > 0.8


def test_deep_buffer_asymptote():
    """As B→∞ the share tends to (0.7 − 0.5)/0.7 ≈ 28.6%."""
    pred = predict_two_flow(link(500))
    assert pred.bbr_fraction == pytest.approx(
        (CUBIC_BACKOFF - 0.5) / CUBIC_BACKOFF, rel=0.05
    )


def test_scale_invariance_in_bdp_units():
    """§4.4: once the buffer is normalized to BDP, predictions depend on
    neither C nor RTT individually (Figure 3's four panels)."""
    for bdp in (2, 10, 25):
        fractions = [
            predict_two_flow(link(bdp, mbps=c, rtt=r)).bbr_fraction
            for c, r in ((50, 40), (50, 80), (100, 40), (100, 80))
        ]
        assert max(fractions) - min(fractions) < 1e-12


def test_rtt_plus_matches_equation9():
    """RTT⁺ = RTT + b_cmin/C."""
    cfg = link(5)
    pred = predict_two_flow(cfg)
    assert pred.rtt_plus == pytest.approx(
        cfg.rtt + pred.cubic_min_buffer / cfg.capacity
    )


def test_b_cmin_is_half_excess_buffer():
    """With b_b + b_c ≈ B, Eq. (10) pins b_cmin = (B − C·RTT)/2."""
    cfg = link(9)
    pred = predict_two_flow(cfg)
    assert pred.cubic_min_buffer == pytest.approx(
        (cfg.buffer_bytes - cfg.bdp_bytes) / 2
    )


def test_validity_flags():
    assert predict_two_flow(link(5)).in_validity_range
    assert not predict_two_flow(link(0.5)).in_validity_range
    assert not predict_two_flow(link(150)).in_validity_range


def test_shallow_buffer_gives_bbr_everything():
    cfg = link(0.8)
    assert solve_bbr_buffer_share(cfg) == cfg.buffer_bytes


def test_generalized_backoff_monotone():
    """Larger aggregate backoff factor (de-synchronized CUBIC) keeps more
    packets in the buffer and raises BBR's share — the ordering behind
    the multi-flow bounds.  So a gentler backoff leaves fewer CUBIC
    flows at the 50-flow NE: Reno's β = 0.5 would have resisted BBR
    harder than CUBIC's 0.7, or a gentler 0.85."""
    cfg = link(10)
    b_sync = solve_bbr_buffer_share(cfg, backoff=0.7)
    b_desync = solve_bbr_buffer_share(cfg, backoff=0.94)
    assert b_desync > b_sync
    for depth in (5, 20):
        cfg = link(depth)
        shares = [
            solve_bbr_buffer_share(cfg, backoff=beta) / cfg.buffer_bytes
            for beta in (0.5, 0.7, 0.85)
        ]
        n_cubic = [50 - 50 * share for share in shares]
        assert n_cubic[0] > n_cubic[1] > n_cubic[2]


def test_backoff_validation():
    with pytest.raises(ValueError):
        solve_bbr_buffer_share(link(5), backoff=0.0)
    with pytest.raises(ValueError):
        solve_bbr_buffer_share(link(5), backoff=1.5)


def test_cwnd_gain_validation():
    with pytest.raises(ValueError):
        solve_bbr_buffer_share(link(5), cwnd_gain=1.0)


def test_cwnd_gain_default_matches_paper_model():
    """γ = 2 is exactly the paper's Eq. (18)."""
    cfg = link(7)
    assert solve_bbr_buffer_share(cfg) == pytest.approx(
        solve_bbr_buffer_share(cfg, cwnd_gain=2.0)
    )


def test_cwnd_gain_monotone():
    """§5: a smaller in-flight cap (closer to 1 BDP) means less BBR
    bandwidth — the model's γ = 2 choice is its aggressive edge — at
    every depth, and the cap matters less in deep buffers, where CUBIC
    dominates anyway."""
    cfg = link(7)
    shares = [
        predict_two_flow(cfg, cwnd_gain=g).bbr_fraction
        for g in (1.2, 1.5, 2.0)
    ]
    assert shares[0] < shares[1] < shares[2]
    spreads = []
    for depth in (2, 5, 10, 30):
        low, mid, high = (
            predict_two_flow(link(depth), cwnd_gain=g).bbr_fraction
            for g in (1.25, 1.5, 2.0)
        )
        assert low < mid < high
        spreads.append(high - low)
    assert spreads[-1] < spreads[0]


def test_cwnd_gain_generalized_b_cmin():
    """b_cmin = (B − (γ−1)K)/γ from the generalized Eq. (10)."""
    cfg = link(9)
    gain = 1.5
    pred = predict_two_flow(cfg, cwnd_gain=gain)
    expected = (cfg.buffer_bytes - (gain - 1) * cfg.bdp_bytes) / gain
    assert pred.cubic_min_buffer == pytest.approx(expected)


def test_bbr_fraction_property():
    pred = ModelPrediction(
        bbr_buffer=1,
        cubic_buffer=1,
        cubic_min_buffer=1,
        bbr_bandwidth=30.0,
        cubic_bandwidth=70.0,
        rtt_plus=0.05,
        in_validity_range=True,
    )
    assert pred.bbr_fraction == pytest.approx(0.3)
