"""Figure 6: the Nash-equilibrium geometry, quantified from the model.

Paper result: the per-flow BBR bandwidth line starts above the fair-share
line (point A), ends at it (point B, all-BBR), and its crossing C is a
stable mixed NE.
"""

import pytest

from repro.core.game import GroupGame
from repro.core.multi_flow import predict_multi_flow
from repro.experiments.figures import figure6
from repro.util.config import LinkConfig


def test_figure6(benchmark, scale, save_figure):
    fig = benchmark.pedantic(
        figure6, kwargs={"scale": scale}, rounds=1, iterations=1
    )
    save_figure(fig)
    fair = fig.get("fair-share").y[0]
    for bound in ("bbr-per-flow-sync", "bbr-per-flow-desync"):
        series = fig.get(bound)
        # Point A: a lone BBR flow is far above fair share.
        assert series.y[0] > 2 * fair
        # Point B: all-BBR lands exactly at fair share.
        assert series.y[-1] == pytest.approx(fair)
        # Strictly decreasing until the all-BBR point.
        interior = series.y[:-1]
        assert all(a > b for a, b in zip(interior, interior[1:]))
        # The line crosses fair share → an interior crossing C exists.
        assert interior[0] > fair and interior[-1] < fair


def test_figure6_crossing_is_stable_ne(scale):
    """Build the model-implied game and check C is an NE (§4.1 case 2)."""
    link = LinkConfig.from_mbps_ms(100, 40, 3)
    n = 10

    def payoff(k):
        pred = predict_multi_flow(link, n - k, k)
        return (pred.per_flow_cubic_sync, pred.per_flow_bbr_sync)

    game = GroupGame(
        [n], lambda *states: [[payoff(k)] for (k,) in states], 1e-9
    )
    equilibria = game.nash_equilibria()
    assert equilibria
    assert any(0 < k < n for (k,) in equilibria)
    # Best-response dynamics from both extremes converge to an NE.
    for start in (0, n):
        path = game.best_response_path((start,))
        assert game.is_nash(path[-1])
