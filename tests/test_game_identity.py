"""The game's answers, pinned rather than argued.

``game_identity.json`` was generated at the commit *before*
:class:`~repro.core.game.GroupGame` became the only game — when
``ThroughputTable``, ``bisect_nash`` and ``GroupGame`` each carried
their own NE check and best-response rule: for synthetic tables
(single-crossing, all-challenger, all-incumbent, flat, two noisy
non-monotone ones; n = 1, 2, 3, 10, 50) and two synthetic 3-group
games, at tolerance 0 and 0.75, the NE list, ``bisect_nash``'s result
and evaluated set, and the best-response path from every start; and
for one measured same-RTT search and one measured 2×2-flow group walk,
the answer plus every fingerprint submitted.
:mod:`tests.identity` recomputes all of it (``python -m tests.identity
game`` rewrites the file).

Everything must match, with two named classes of exception, both
declared with the fixture in :data:`tests.identity.FIXTURES`:

* **the larger gain wins** — the old table rule took the
  challenger-ward move whenever it paid; the one rule takes the move
  that gains most.  They differ only from a state where *both*
  directions pay (noisy tables only): ``larger_gain`` lists every
  such start with its path now; the path before is the pinned one.
* **a cycle is cut** — the old group walk ran all 1 000 steps around a
  best-response cycle; the one walk stops at the first state visited
  twice.  The fixture records such a path as the prefix up to that
  state plus the old length (1 001).
"""

import pytest

from tests.identity import (
    FIXTURES,
    group_walk,
    load,
    measured_group_walk,
    measured_search,
    table_answers,
    tabled_game,
    throughput_table,
    walk,
)

IDENTITY = load("game")
TOLERANCES = [repr(tol) for tol in IDENTITY["tolerances"]]
EXCEPTIONS = FIXTURES["game"].exceptions
#: (table, start) -> the best-response path now.
LARGER_GAIN = EXCEPTIONS["larger_gain"]


@pytest.mark.parametrize("tol", TOLERANCES)
@pytest.mark.parametrize(
    "entry", IDENTITY["tables"], ids=lambda entry: entry["name"]
)
def test_table_equilibria_and_bisection_match_the_parent(entry, tol):
    # ``group_paths``, where pinned, is the old one-group GroupGame walk.
    pinned = entry["by_tolerance"][tol]
    assert table_answers(entry, tol, pinned) == pinned


@pytest.mark.parametrize(
    "entry", IDENTITY["tables"], ids=lambda entry: entry["name"]
)
def test_table_walks_match_the_parent(entry):
    game = throughput_table(entry).game()
    a, b = entry["lambda_a"], entry["lambda_b"]
    for start, before in enumerate(entry["table_paths"]):
        after = LARGER_GAIN.get((entry["name"], start), before)
        assert walk(game, start) == after
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
    game = tabled_game(entry, tol)
    assert [list(s) for s in game.nash_equilibria()] == pinned["ne"]
    for start, path in pinned["paths"]:
        walked = group_walk(game, start)
        if isinstance(path, dict):  # The named exception: a cycle, cut.
            assert path["parent_length"] == EXCEPTIONS["cycle_length"]
            assert walked == path["prefix"]
            assert walked[-1] in walked[:-1]
        else:
            assert walked == path


def test_noisy_group_game_exercises_the_cycle_cut():
    paths = IDENTITY["group_games"][1]["by_tolerance"]["0.0"]["paths"]
    assert sum(isinstance(path, dict) for _, path in paths) == 15


def test_measured_search_submits_the_parents_points(counting_engine):
    pinned = IDENTITY["measured_search"]
    answers = measured_search(pinned, counting_engine)
    assert answers == {key: pinned[key] for key in answers}


def test_measured_group_walk_submits_the_parents_points(counting_engine):
    pinned = IDENTITY["measured_group_walk"]
    answers = measured_group_walk(pinned, counting_engine)
    assert answers == {key: pinned[key] for key in answers}
