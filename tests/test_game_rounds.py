"""A round of game states is one engine batch.

:class:`~repro.core.game.GroupGame` hands its payoff function every
state a question needs and does not know yet in one call, and the
runner's payoff functions turn that call into one
``Engine.run_points``: counted here on a real (sequential, cache-less)
engine that records what each call carried (``conftest.CountingEngine``).
"""

from repro.core.game import GroupGame, ThroughputTable, bisect_nash
from repro.experiments.runner import distribution_payoff_fn, group_payoff_fn
from repro.util.config import LinkConfig

LINK = LinkConfig.from_mbps_ms(20, 20, 3)


def submitted_once(engine):
    flat = sum(engine.calls, [])
    return len(flat) == len(set(flat)) == engine.stats["simulated"]


def neighbours(state, sizes):
    return {
        state[:g] + (k + step,) + state[g + 1:]
        for g, (k, size) in enumerate(zip(state, sizes))
        for step in (+1, -1)
        if 0 <= k + step <= size
    }


def test_best_response_step_is_one_batch_of_the_unknown_neighbours(
    counting_engine,
):
    engine = counting_engine
    sizes = (2, 2, 2)
    payoff = group_payoff_fn(
        LINK, [0.010, 0.030, 0.050], sizes, duration=5, engine=engine
    )
    game = GroupGame(sizes, payoff)
    state = (1, 1, 1)
    nxt = game.best_response_step(state)
    assert [len(call) for call in engine.calls] == [1 + 6]
    assert set(game.known) == {state} | neighbours(state, sizes)

    assert nxt != state
    unknown = neighbours(nxt, sizes) - set(game.known)
    game.best_response_step(nxt)
    assert [len(call) for call in engine.calls] == [7, len(unknown)]
    assert 0 < len(unknown) < 6

    # Nothing new to ask: no call at all.
    assert game.is_nash(state) is False
    assert len(engine.calls) == 2
    assert submitted_once(engine)


def test_a_table_is_one_batch(counting_engine):
    engine = counting_engine
    payoff = distribution_payoff_fn(LINK, 4, duration=5, engine=engine)
    table = ThroughputTable.from_game(GroupGame([4], payoff))
    assert [len(call) for call in engine.calls] == [5]
    # The played-out table answers from its columns.
    game = table.game(tolerance=0.02 * LINK.capacity / 4)
    assert game.nash_equilibria()
    game.best_response_path((2,))
    assert len(engine.calls) == 1
    assert submitted_once(engine)


def test_bisection_is_one_batch_per_probe_then_the_neighbourhood(
    counting_engine,
):
    engine = counting_engine
    link = LinkConfig.from_mbps_ms(100, 40, 2)
    payoff = distribution_payoff_fn(link, 10, duration=5, engine=engine)
    found, evaluated = bisect_nash(GroupGame([10], payoff))
    assert found
    *probes, neighbourhood = [len(call) for call in engine.calls]
    assert len(probes) >= 2 and set(probes) == {1}
    assert neighbourhood > 1
    assert len(probes) + neighbourhood == len(evaluated)
    assert submitted_once(engine)


def test_cca_names_are_read_case_insensitively():
    """``ScenarioPoint`` lower-cases the mix, so result classes are
    lower-case however the game spelled its CCAs (an upper-case game
    used to read every payoff as 0.0 — and call every state an NE)."""
    states = [(k,) for k in range(5)]

    def play(**names):
        return distribution_payoff_fn(LINK, 4, duration=5, **names)(*states)

    lower = play(incumbent="cubic", challenger="bbr")
    assert play(incumbent="CUBIC", challenger="Bbr") == lower
    assert all(a > 0 for [(a, _)] in lower[:-1])
    assert all(b > 0 for [(_, b)] in lower[1:])
