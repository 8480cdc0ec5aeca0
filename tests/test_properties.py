"""Property-based tests (hypothesis) for core invariants."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.game import ThroughputTable, bisect_nash
from repro.core.multi_flow import desync_backoff, predict_multi_flow
from repro.core.nash import predict_nash
from repro.core.two_flow import (
    CUBIC_BACKOFF,
    predict_two_flow,
    solve_bbr_buffer_share,
)
from repro.core.ware import ware_prediction
from repro.util.config import LinkConfig
from repro.util.filters import WindowedMax, WindowedMin

links = st.builds(
    LinkConfig.from_mbps_ms,
    st.floats(min_value=1.0, max_value=1000.0),
    st.floats(min_value=1.0, max_value=500.0),
    st.floats(min_value=1.05, max_value=99.0),
)


@given(links)
def test_two_flow_bandwidths_partition_capacity(link):
    pred = predict_two_flow(link)
    assert 0 <= pred.bbr_bandwidth <= link.capacity * (1 + 1e-9)
    assert 0 <= pred.cubic_bandwidth <= link.capacity * (1 + 1e-9)
    assert pred.bbr_bandwidth + pred.cubic_bandwidth == (
        pytest_approx(link.capacity)
    )


def pytest_approx(x, rel=1e-6):
    import pytest

    return pytest.approx(x, rel=rel)


@given(links)
def test_two_flow_solution_satisfies_equation18(link):
    b, k = link.buffer_bytes, link.bdp_bytes
    assume(b > k * 1.01)
    bb = solve_bbr_buffer_share(link)
    h = (b - k) / 2
    lhs = h + h * k / (h + bb)
    rhs = CUBIC_BACKOFF * (b - bb) * (1 + k / b)
    assert math.isclose(lhs, rhs, rel_tol=1e-6)


@given(links)
def test_buffer_share_within_buffer(link):
    bb = solve_bbr_buffer_share(link)
    assert 0 <= bb <= link.buffer_bytes * (1 + 1e-9)


@given(
    links,
    st.floats(min_value=0.55, max_value=0.999),
    st.floats(min_value=0.55, max_value=0.999),
)
def test_buffer_share_monotone_in_backoff(link, r1, r2):
    assume(abs(r1 - r2) > 1e-6)
    lo, hi = sorted((r1, r2))
    assert solve_bbr_buffer_share(link, backoff=lo) <= (
        solve_bbr_buffer_share(link, backoff=hi) + 1e-6 * link.buffer_bytes
    )


@given(links, st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=40))
def test_multi_flow_region_is_ordered(link, n_cubic, n_bbr):
    pred = predict_multi_flow(link, n_cubic, n_bbr)
    assert pred.bbr_aggregate_desync >= pred.bbr_aggregate_sync - 1e-6
    lo, hi = pred.per_flow_bbr_bounds()
    assert lo <= hi


@given(links, st.integers(min_value=2, max_value=200))
def test_nash_prediction_within_flow_count(link, n_flows):
    pred = predict_nash(link, n_flows)
    assert 0 <= pred.n_bbr_sync <= n_flows + 1e-9
    assert 0 <= pred.n_bbr_desync <= n_flows + 1e-9
    assert pred.n_cubic_low <= pred.n_cubic_high


@given(links, st.integers(min_value=1, max_value=50))
def test_ware_fractions_bounded(link, n_bbr):
    pred = ware_prediction(link, n_bbr=n_bbr)
    assert 0.0 <= pred.bbr_fraction <= 1.0
    assert 0.0 <= pred.cubic_fraction <= 1.0
    assert 0.0 <= pred.probe_time_fraction <= 1.0


@given(st.integers(min_value=1, max_value=10_000))
def test_desync_backoff_in_valid_range(n_cubic):
    r = desync_backoff(n_cubic)
    assert 0.7 <= r < 1.0


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100),
            st.floats(min_value=0, max_value=1000),
        ),
        min_size=1,
        max_size=200,
    ).map(lambda items: sorted(items, key=lambda t: t[0]))
)
def test_windowed_max_equals_naive_max(samples):
    window = 10.0
    f = WindowedMax(window)
    for i, (now, value) in enumerate(samples):
        got = f.update(now, value)
        expected = max(
            v for t, v in samples[: i + 1] if t >= now - window
        )
        assert got == expected


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100),
            st.floats(min_value=0, max_value=1000),
        ),
        min_size=1,
        max_size=200,
    ).map(lambda items: sorted(items, key=lambda t: t[0]))
)
def test_windowed_min_equals_naive_min(samples):
    window = 7.0
    f = WindowedMin(window)
    for i, (now, value) in enumerate(samples):
        got = f.update(now, value)
        expected = min(
            v for t, v in samples[: i + 1] if t >= now - window
        )
        assert got == expected


@st.composite
def monotone_games(draw):
    """Games where BBR's advantage decreases in k (the Figure-6 shape)."""
    n = draw(st.integers(min_value=2, max_value=30))
    capacity = 100.0
    fair = capacity / n
    start = draw(st.floats(min_value=-5.0, max_value=30.0))
    slope = draw(st.floats(min_value=0.1, max_value=5.0))
    lambda_a, lambda_b = [], []
    for k in range(n + 1):
        adv = start - slope * k
        b = max(fair + adv, 0.0) if k > 0 else 0.0
        total_b = min(b * k, capacity)
        a = (capacity - total_b) / (n - k) if k < n else 0.0
        lambda_a.append(max(a, 0.0))
        lambda_b.append(b)
    return ThroughputTable(n_flows=n, lambda_a=lambda_a, lambda_b=lambda_b)


@given(monotone_games())
@settings(max_examples=50)
def test_nash_equilibrium_always_exists(table):
    """§4.1's theorem: games with the A→B line structure have an NE."""
    assert table.game(tolerance=1e-9).nash_equilibria()


@st.composite
def any_games(draw):
    """Arbitrary (noisy, non-monotone) tables on a coarse grid, so
    ties and tolerance-sized gaps actually occur."""
    n = draw(st.integers(min_value=1, max_value=12))
    column = st.lists(
        st.integers(min_value=0, max_value=8).map(lambda v: v / 2.0),
        min_size=n + 1,
        max_size=n + 1,
    )
    tolerance = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return ThroughputTable(n, draw(column), draw(column)), tolerance


@given(any_games())
@settings(max_examples=200, deadline=None)
def test_ne_predicate_is_the_definition_and_bisection_finds_only_ne(game):
    """§4.4 written out by brute force: ``k`` is an NE iff neither a
    challenger flow gains by going back nor an incumbent flow by
    switching, beyond the tolerance."""
    table, tolerance = game
    a, b, n = table.lambda_a, table.lambda_b, table.n_flows
    brute = [
        k
        for k in range(n + 1)
        if not (k > 0 and a[k - 1] > b[k] + tolerance)
        and not (k < n and b[k + 1] > a[k] + tolerance)
    ]
    asked = table.game(tolerance)
    assert [k for (k,) in asked.nash_equilibria()] == brute
    found, evaluated = bisect_nash(table.game(tolerance))
    assert set(found) <= set(brute)
    assert all(0 <= k <= n for k in evaluated)
    # A walk ends at an NE: one group cannot cycle.
    for (k,) in asked.states():
        assert asked.best_response_path((k,))[-1][0] in brute


@given(monotone_games())
@settings(max_examples=50)
def test_bisection_equals_enumeration_on_single_crossing_games(table):
    found, _ = bisect_nash(table.game())
    assert found == [k for (k,) in table.game().nash_equilibria()]


@given(monotone_games(), st.integers(min_value=0, max_value=30))
@settings(max_examples=50)
def test_best_response_terminates_at_ne(table, start):
    start = min(start, table.n_flows)
    path = table.game().best_response_path((start,))
    assert len(path) <= table.n_flows + 2
    assert table.game(tolerance=1e-9).is_nash(path[-1])
