"""The game's answers, pinned rather than argued.

``game_identity.json`` was generated at the commit *before*
:class:`~repro.core.game.GroupGame` became the only game — when
``ThroughputTable``, ``bisect_nash`` and ``GroupGame`` each carried
their own NE check and best-response rule — by a script kept out of the
repo: for synthetic tables (single-crossing, all-challenger,
all-incumbent, flat, two noisy non-monotone ones; n = 1, 2, 3, 10, 50)
and two synthetic 3-group games, at tolerance 0 and 0.75, the NE list,
``bisect_nash``'s result and evaluated set, and the best-response path
from every start; and for one measured same-RTT search and one measured
2×2-flow group walk, the answer plus every fingerprint submitted.

Everything must match, with two named classes of exception:

* **the larger gain wins** — the old table rule took the
  challenger-ward move whenever it paid; the one rule takes the move
  that gains most.  They differ only from a state where *both*
  directions pay (noisy tables only): :data:`LARGER_GAIN` lists every
  such start with its path now; the path before is the pinned one.
* **a cycle is cut** — the old group walk ran all 1 000 steps around a
  best-response cycle; the one walk stops at the first state visited
  twice.  The fixture records such a path as the prefix up to that
  state plus the old length (1 001).
"""

import json
from pathlib import Path

import pytest

from repro.core.game import GroupGame, ThroughputTable, bisect_nash
from repro.experiments.runner import distribution_payoff_fn, group_payoff_fn
from repro.util.config import LinkConfig

IDENTITY = json.loads(
    (Path(__file__).parent / "game_identity.json").read_text()
)
TOLERANCES = [repr(tol) for tol in IDENTITY["tolerances"]]

#: (table, start) -> the best-response path now, where the larger
#: incumbent-ward gain beats the challenger-ward move the old table
#: rule took first.
LARGER_GAIN = {
    ("noisy-b-n3", 2): [2, 1],
    ("noisy-b-n10", 8): [8, 7, 6, 5],
    ("noisy-a-n50", 11): [11, 10, 9, 8, 7],
    ("noisy-a-n50", 15): [15, 14],
    ("noisy-a-n50", 19): [19, 18],
    ("noisy-a-n50", 26): [26, 25, 24, 23],
    ("noisy-a-n50", 32): [32, 31, 30, 29, 28, 27],
    ("noisy-a-n50", 37): [37, 36],
    ("noisy-a-n50", 43): [43, 42],
    ("noisy-b-n50", 5): [5, 4, 3, 2, 1],
    ("noisy-b-n50", 8): [8, 7],
    ("noisy-b-n50", 18): [18, 17, 16, 15, 14, 13, 12, 11, 10, 9],
}


def _table(entry):
    return ThroughputTable(
        entry["n_flows"], entry["lambda_a"], entry["lambda_b"]
    )


def _walk(game, start):
    return [k for (k,) in game.best_response_path((start,))]


@pytest.mark.parametrize("tol", TOLERANCES)
@pytest.mark.parametrize(
    "entry", IDENTITY["tables"], ids=lambda entry: entry["name"]
)
def test_table_equilibria_and_bisection_match_the_parent(entry, tol):
    pinned = entry["by_tolerance"][tol]
    table = _table(entry)
    game = table.game(float(tol))
    assert [k for (k,) in game.nash_equilibria()] == pinned["ne"]
    found, evaluated = bisect_nash(table.game(float(tol)))
    assert found == pinned["bisect_ne"]
    assert sorted(evaluated) == pinned["bisect_evaluated"]
    if "group_paths" in pinned:  # The old one-group GroupGame walk.
        for start, path in enumerate(pinned["group_paths"]):
            assert _walk(game, start) == path


@pytest.mark.parametrize(
    "entry", IDENTITY["tables"], ids=lambda entry: entry["name"]
)
def test_table_walks_match_the_parent(entry):
    game = _table(entry).game()
    a, b = entry["lambda_a"], entry["lambda_b"]
    for start, before in enumerate(entry["table_paths"]):
        after = LARGER_GAIN.get((entry["name"], start), before)
        assert _walk(game, start) == after
        if after != before:
            # The named exception: both directions pay at the start,
            # the old rule went up, the larger gain is down.
            up = b[start + 1] - a[start]
            down = a[start - 1] - b[start]
            assert 0 < up < down
            assert (before[1], after[1]) == (start + 1, start - 1)
    assert {name for name, _ in LARGER_GAIN} <= {
        entry["name"] for entry in IDENTITY["tables"]
    }


@pytest.mark.parametrize("tol", TOLERANCES)
@pytest.mark.parametrize(
    "entry", IDENTITY["group_games"], ids=lambda entry: entry["name"]
)
def test_group_game_answers_match_the_parent(entry, tol):
    pinned = entry["by_tolerance"][tol]
    table = {
        tuple(state): [tuple(pair) for pair in pairs]
        for state, pairs in entry["payoffs"]
    }
    game = GroupGame(
        entry["sizes"],
        lambda *states: [table[state] for state in states],
        float(tol),
    )
    assert [list(s) for s in game.nash_equilibria()] == pinned["ne"]
    for start, path in pinned["paths"]:
        walked = [list(s) for s in game.best_response_path(tuple(start))]
        if isinstance(path, dict):  # The named exception: a cycle, cut.
            assert path["parent_length"] == 1001
            assert walked == path["prefix"]
            assert walked[-1] in walked[:-1]
        else:
            assert walked == path


def test_noisy_group_game_exercises_the_cycle_cut():
    paths = IDENTITY["group_games"][1]["by_tolerance"]["0.0"]["paths"]
    assert sum(isinstance(path, dict) for _, path in paths) == 15


def test_measured_search_submits_the_parents_points(counting_engine):
    pinned = IDENTITY["measured_search"]
    engine = counting_engine
    payoff = distribution_payoff_fn(
        LinkConfig.from_mbps_ms(**pinned["link"]),
        pinned["n_flows"],
        duration=pinned["duration"],
        engine=engine,
    )
    found, evaluated = bisect_nash(GroupGame([pinned["n_flows"]], payoff))
    assert found == pinned["ne"]
    assert sorted(evaluated) == pinned["evaluated"]
    assert sorted(sum(engine.calls, [])) == pinned["fingerprints"]


def test_measured_group_walk_submits_the_parents_points(counting_engine):
    pinned = IDENTITY["measured_group_walk"]
    engine = counting_engine
    payoff = group_payoff_fn(
        LinkConfig.from_mbps_ms(**pinned["link"]),
        pinned["group_rtts"],
        pinned["group_sizes"],
        duration=pinned["duration"],
        engine=engine,
    )
    game = GroupGame(pinned["group_sizes"], payoff)
    starts = [tuple(start) for start in pinned["starts"]]
    assert [
        [list(s) for s in game.best_response_path(start)]
        for start in starts
    ] == pinned["paths"]
    assert [list(s) for s in game.settle(starts)] == pinned["ne"]
    assert sorted(sum(engine.calls, [])) == pinned["fingerprints"]
