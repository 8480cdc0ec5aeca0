"""Extension benchmark: the paper's §5 transition narrative, as games.

"CUBIC was able to largely replace New Reno because it was more
aggressive and not very friendly to existing Reno flows... the situation
between BBR and CUBIC is much less straightforward."  Play all three
games and assert their equilibrium structures differ exactly that way:

* Reno vs CUBIC  → unique all-CUBIC NE (full replacement);
* Reno vs Vegas  → all-Reno NE (no adoption incentive);
* CUBIC vs BBR   → a mixed interior NE (coexistence).
"""

from repro.core.game import GroupGame, ThroughputTable
from repro.experiments.runner import distribution_payoff_fn
from repro.util.config import LinkConfig

N_FLOWS = 8
DURATION = 100.0


def _play(incumbent, challenger, seed=21):
    link = LinkConfig.from_mbps_ms(100, 40, 3)
    payoff = distribution_payoff_fn(
        link,
        N_FLOWS,
        challenger=challenger,
        incumbent=incumbent,
        duration=DURATION,
        backend="fluid",
        seed=seed,
    )
    table = ThroughputTable.from_game(GroupGame([N_FLOWS], payoff))
    game = table.game(tolerance=0.02 * link.capacity / N_FLOWS)
    return table, [k for (k,) in game.nash_equilibria()]


def _all_games():
    return {
        "reno-cubic": _play("reno", "cubic"),
        "reno-vegas": _play("reno", "vegas"),
        "cubic-bbr": _play("cubic", "bbr"),
    }


def test_transition_games(benchmark):
    rows = benchmark.pedantic(_all_games, rounds=1, iterations=1)

    # CUBIC vs Reno: a challenger CUBIC flow gains at every mixed
    # distribution, so the game rolls to all-CUBIC.
    table, equilibria = rows["reno-cubic"]
    assert equilibria == [N_FLOWS]
    assert all(
        table.lambda_b[k] > table.lambda_a[k]
        for k in range(1, N_FLOWS)
    )

    # Vegas vs Reno: switching to Vegas never pays; all-Reno is an NE
    # and no interior distribution is.
    _table, equilibria = rows["reno-vegas"]
    assert 0 in equilibria
    assert not any(0 < k < N_FLOWS for k in equilibria)

    # BBR vs CUBIC: at least one *interior* NE (the paper's thesis).
    _table, equilibria = rows["cubic-bbr"]
    assert any(0 < k < N_FLOWS for k in equilibria)
