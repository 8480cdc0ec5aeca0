"""The §4.3 utility game plumbing (``delay_weight`` of
distribution_payoff_fn)."""

import pytest

from repro.core.game import GroupGame, ThroughputTable
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
    """At weight 0 (the default) utility *is* the point's throughput,
    bit for bit — one function serves §4.1 and §4.3."""
    n = 4
    kwargs = dict(duration=40, backend="fluid", seed=6)
    states = [(0,), (2,), (4,)]
    measured = distribution_payoff_fn(link(), n, **kwargs)(*states)
    assert measured == distribution_payoff_fn(
        link(), n, delay_weight=0.0, **kwargs
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


def test_delay_penalty_shared_between_classes():
    """The penalty subtracts equally from both CCAs, so the *difference*
    of utilities at any distribution equals the throughput difference."""
    n = 4
    kwargs = dict(duration=40, backend="fluid", seed=6)
    fn_t = distribution_payoff_fn(link(), n, **kwargs)
    fn_u = distribution_payoff_fn(link(), n, delay_weight=5.0, **kwargs)
    states = [(1,), (2,), (3,)]
    for [(ta, tb)], [(ua, ub)] in zip(fn_t(*states), fn_u(*states)):
        assert (ub - ua) == pytest.approx(tb - ta, rel=1e-9)
        assert ua < ta and ub < tb  # Penalty actually applied.


def test_weight_validation():
    with pytest.raises(ValueError):
        distribution_payoff_fn(link(), 4, delay_weight=-1.0)


def test_bounds_checked():
    payoff = distribution_payoff_fn(
        link(), 4, delay_weight=1.0, duration=20, backend="fluid"
    )
    engine = Engine()
    with use(engine), pytest.raises(ValueError, match="outside the game"):
        GroupGame([4], payoff).payoffs((2,), (5,))
    assert engine.stats["submitted"] == 0  # Rejected before any ran.


def test_utility_game_feeds_throughput_table():
    n = 4
    payoff = distribution_payoff_fn(
        link(), n, delay_weight=2.0, duration=60, backend="fluid", seed=1
    )
    table = ThroughputTable.from_game(GroupGame([n], payoff))
    # The machinery is payoff-agnostic: NE enumeration just works.
    game = table.game(tolerance=0.05 * link().capacity / n)
    assert game.nash_equilibria()
