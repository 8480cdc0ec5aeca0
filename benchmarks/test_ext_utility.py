"""Extension benchmark: Nash Equilibria under complex utilities (§4.3).

The paper argues (Figure 8) that because queuing delay is *shared* by
all flows at a bottleneck while throughput is sharply asymmetric,
switching decisions — and hence the NE — remain throughput-driven even
for users who also value delay.  It conjectures that "under simple
utility functions that are linear combinations of throughput and delay,
a Nash Equilibrium distribution will still exist."

We test the conjecture: play the game with
``U = throughput − w·delay`` for increasing delay weights and check an
NE still exists, with the equilibrium barely moving for moderate
weights.
"""

from repro.core.game import GroupGame
from repro.experiments.runner import distribution_payoff_fn
from repro.util.config import LinkConfig

N_FLOWS = 8
DURATION = 100.0

#: Mbps of throughput a user would trade for 100 ms of queuing delay.
DELAY_WEIGHTS = (0.0, 2.0, 10.0)


def _games():
    link = LinkConfig.from_mbps_ms(100, 40, 3)
    out = {}
    for weight in DELAY_WEIGHTS:
        payoff = distribution_payoff_fn(
            link,
            N_FLOWS,
            delay_weight=weight,
            duration=DURATION,
            backend="fluid",
            seed=21,
        )
        tolerance = 0.02 * link.capacity / N_FLOWS
        game = GroupGame([N_FLOWS], payoff, tolerance)
        out[weight] = [k for (k,) in game.nash_equilibria()]
    return out


def test_ne_exists_under_linear_utilities(benchmark):
    rows = benchmark.pedantic(_games, rounds=1, iterations=1)

    # An NE exists at every delay weight (the §4.3 conjecture).
    for weight, equilibria in rows.items():
        assert equilibria, f"no NE at delay weight {weight}"

    # For moderate weights the equilibrium set barely moves relative to
    # the pure-throughput game: the shared delay term cancels out of
    # every switching comparison up to distribution-to-distribution
    # delay differences, which Figure 8b shows are small.
    base = set(rows[0.0])
    moderate = set(rows[2.0])
    assert base & {k - 1 for k in moderate} | base & moderate | base & {
        k + 1 for k in moderate
    }, f"NE moved too far: {base} vs {moderate}"
