"""Model-predicted Nash Equilibria (§4.1, Equation 25)."""

import pytest

from repro.core.multi_flow import predict_multi_flow
from repro.core.nash import nash_region, predict_nash
from repro.util.config import LinkConfig


def link(bdp, mbps=100, rtt=40):
    return LinkConfig.from_mbps_ms(mbps, rtt, bdp)


def test_equation25_satisfied_at_sync_solution():
    """λ̄_b/N_b = C/N at the predicted sync NE."""
    cfg = link(10)
    n = 50
    pred = predict_nash(cfg, n)
    n_b = pred.n_bbr_sync
    agg = predict_multi_flow(cfg, 1, 1).bbr_aggregate_sync
    assert agg / n_b == pytest.approx(cfg.capacity / n, rel=1e-6)


def test_desync_solution_is_fixed_point():
    cfg = link(10)
    n = 50
    pred = predict_nash(cfg, n)
    n_b = pred.n_bbr_desync
    n_c = max(int(round(n - n_b)), 1)
    agg = predict_multi_flow(cfg, n_c, 1).bbr_aggregate_desync
    assert n * agg / cfg.capacity == pytest.approx(n_b, rel=0.02)


def test_shallow_buffer_ne_is_all_bbr():
    pred = predict_nash(link(0.5), 50)
    assert pred.n_cubic_low == 0
    assert pred.n_cubic_high == 0


def test_mixed_ne_for_realistic_buffers():
    """The paper's headline: realistic buffers yield *mixed* NE."""
    for bdp in (3, 5, 10, 20, 50):
        pred = predict_nash(link(bdp), 50)
        assert 0 < pred.n_cubic_low
        assert pred.n_cubic_high < 50


def test_more_cubic_at_ne_in_deeper_buffers():
    """Figure 9's trend."""
    values = [
        predict_nash(link(bdp), 50).n_cubic_sync
        for bdp in (2, 5, 10, 25, 50)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_region_scale_invariant_in_bdp_units():
    """§4.4: the predicted region is identical across link speeds and
    RTTs once the buffer is in BDP (Figure 9's six panels)."""
    for bdp in (2, 10, 40, 50):
        regions = [
            predict_nash(link(bdp, mbps=c, rtt=r), 50)
            for c in (50, 100)
            for r in (20, 40, 80)
        ]
        for bound in ("n_cubic_sync", "n_cubic_desync"):
            values = [getattr(region, bound) for region in regions]
            assert max(values) - min(values) < 1e-12


def test_ne_scales_linearly_with_flow_count():
    """The NE fraction does not depend on the population size, so the
    paper's 50-flow results scale up (checked from 10 to 1 000 flows)."""
    a = predict_nash(link(10), 25)
    b = predict_nash(link(10), 50)
    assert b.n_cubic_sync == pytest.approx(2 * a.n_cubic_sync, rel=1e-6)
    fractions = [
        predict_nash(link(10), n).n_cubic_sync / n
        for n in (10, 50, 200, 1000)
    ]
    assert max(fractions) - min(fractions) < 1e-9


def test_bounds_ordering():
    pred = predict_nash(link(10), 50)
    assert pred.n_cubic_low <= pred.n_cubic_high
    # Desync favours BBR → more BBR, fewer CUBIC flows at that bound.
    assert pred.n_cubic_desync <= pred.n_cubic_sync


def test_nash_region_sweep():
    points = nash_region(link(1), 50, [0.5, 2, 10, 50])
    assert len(points) == 4
    assert points[0].n_cubic_sync == 0
    assert points[-1].in_validity_range
    assert not points[0].in_validity_range
    assert points[-1].n_cubic_sync > points[1].n_cubic_sync


def test_validation():
    with pytest.raises(ValueError):
        predict_nash(link(5), 0)


def test_prediction_deterministic_across_repeat_calls():
    """Same link, same n -> bit-identical prediction, at both extremes
    of the flow count (the population layer leans on this)."""
    for n in (1, 2, 50, 10**6):
        a = predict_nash(link(10), n)
        b = predict_nash(link(10), n)
        assert (a.n_bbr_sync, a.n_bbr_desync) == (
            b.n_bbr_sync,
            b.n_bbr_desync,
        )
        assert a.in_validity_range == b.in_validity_range


def test_flow_count_extremes_stay_in_range():
    for n in (1, 10**6):
        pred = predict_nash(link(10), n)
        assert 0 <= pred.n_bbr_sync <= n
        assert 0 <= pred.n_bbr_desync <= n


def test_million_flow_share_matches_small_game():
    """Eq. 25 is linear in N: the BBR *share* at the sync bound is the
    same at 50 flows and at a million."""
    small = predict_nash(link(10), 50)
    big = predict_nash(link(10), 10**6)
    assert big.n_bbr_sync / 10**6 == pytest.approx(
        small.n_bbr_sync / 50, rel=1e-9
    )
