"""The payoff the §4.3 utility game is played over.

``ext-utility`` (claim ``ne_survives_delay_in_the_utility``) subtracts
``w * delay`` from the ``ext-transitions`` throughput table, which
``distribution_payoff_fn`` builds; these tests pin that table's payoffs.
"""

import pytest

from repro.core.game import GroupGame
from repro.exec import Engine, use
from repro.experiments.runner import (
    distribution_payoff_fn,
    run_mix,
    spaced_seed,
)
from repro.util.config import LinkConfig


def link():
    return LinkConfig.from_mbps_ms(100, 40, 3)


def test_zero_weight_equals_throughput_game():
    """At weight 0 utility *is* the point's throughput, bit for bit: each
    payoff is its point's per-flow ``run_mix`` throughput."""
    n = 4
    states = [(0,), (2,), (4,)]
    measured = distribution_payoff_fn(
        link(), n, duration=40, backend="fluid", seed=6
    )(*states)
    for (k,), [pair] in zip(states, measured):
        result = run_mix(
            link(),
            [("cubic", n - k), ("bbr", k)],
            duration=40,
            seed=spaced_seed(6, k),
        )
        assert pair == (
            result.per_flow.get("cubic", 0.0),
            result.per_flow.get("bbr", 0.0),
        )


def test_bounds_checked():
    payoff = distribution_payoff_fn(link(), 4, duration=20, backend="fluid")
    engine = Engine()
    with use(engine), pytest.raises(ValueError, match="outside the game"):
        GroupGame([4], payoff).payoffs((2,), (5,))
    assert engine.stats["submitted"] == 0  # Rejected before any ran.
