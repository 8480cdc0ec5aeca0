"""Scenario-point identity, pinned rather than argued.

``point_identity.json`` was generated at the commit *before* the runner
started executing :class:`ScenarioPoint`s (per-entry RTTs replacing the
per-CCA ``rtts`` mapping, the §4.5 group game becoming points): the
fingerprint and the sha256 of the cached payload file of a spread of
points, and the group payoffs the old private ``run_fluid`` trial loop
measured.  Recomputing them here proves that every point that could be
asked before still has its cache identity and its payload bytes, and
that the group game measures what it measured.  The recomputation is
:mod:`tests.identity`'s, which also rewrites the file.
"""

import pytest

from repro.check import use as use_check
from repro.exec import Engine, ResultCache, ScenarioPoint
from repro.experiments.runner import (
    class_label,
    run_mix,
    run_mix_batch,
    runs_vectorized,
)
from repro.obs.trace import Tracer
from repro.util.config import LinkConfig
from tests.identity import FIXTURES, group_payoff, load, point_pins

IDENTITY = load("point")
GROUP = IDENTITY["group_game"]


@pytest.mark.parametrize(
    "entry", IDENTITY["points"], ids=lambda entry: entry["name"]
)
def test_fingerprint_and_cached_payload_bytes_are_pinned(entry, tmp_path):
    assert point_pins(entry, tmp_path) == {
        "fingerprint": entry["fingerprint"],
        "payload_sha256": entry["payload_sha256"],
    }


def _group_payoff(engine=None, trials=1):
    return group_payoff(GROUP, engine=engine, trials=trials)


def test_group_payoffs_bit_equal_to_the_private_trial_loop():
    goldens = GROUP["by_trials"]["1"]
    # One round: every golden state in a single engine batch.
    measured = _group_payoff()(*(tuple(g["state"]) for g in goldens))
    assert measured == [
        [tuple(pair) for pair in golden["payoffs"]] for golden in goldens
    ]


def test_group_payoffs_over_trials_match_the_pooled_mean():
    # Per-trial-then-mean may differ from the old pooled mean in the
    # last ulp (the fixture's named exception); no shipped caller
    # passes trials.
    rel = FIXTURES["point"].exceptions["pooled_mean_rel"]
    payoff = _group_payoff(trials=3)
    for golden in GROUP["by_trials"]["3"]:
        [pairs] = payoff(tuple(golden["state"]))
        for measured, pinned in zip(pairs, golden["payoffs"]):
            assert measured == pytest.approx(pinned, rel=rel)


def test_group_game_state_is_one_engine_point(tmp_path):
    tracer = Tracer()
    cold = Engine(
        cache=ResultCache(tmp_path), tracer=tracer, profile_slowest=1
    )
    [first] = _group_payoff(cold)((1, 2))
    assert cold.stats["submitted"] == cold.stats["simulated"] == 1
    assert "simulate" in {span.name for span in tracer.spans}
    [profile] = cold.profiled
    assert profile["rows"]

    # The state is the point anyone can build: per group, challenger
    # entry then incumbent entry at the group's RTT.
    point = ScenarioPoint(
        link=LinkConfig.from_mbps_ms(**GROUP["link"]),
        mix=(
            ("bbr", 1, 0.01),
            ("cubic", 1, 0.01),
            ("bbr", 2, 0.03),
            ("cubic", 0, 0.03),
        ),
        duration=GROUP["duration"],
    )
    assert profile["fingerprint"] == point.fingerprint()

    warm = Engine(cache=ResultCache(tmp_path))
    assert _group_payoff(warm)((1, 2)) == [first]
    assert warm.stats["simulated"] == 0
    assert warm.stats["cache_hits"] == warm.stats["submitted"] == 1
    [result] = warm.run_points([point])
    assert first[0] == (
        result.per_flow[class_label("cubic", 0.01)],
        result.per_flow[class_label("bbr", 0.01)],
    )
    assert first[1] == (0.0, result.per_flow["bbr@0.03"])


def test_entry_rtt_points_pool_like_any_other():
    link = LinkConfig.from_mbps_ms(**GROUP["link"])
    mixes = [
        [("bbr", 12, 0.01), ("cubic", 12, 0.01), ("cubic", 8, 0.03)],
        [("bbr", 12, 0.01), ("cubic", 12), ("cubic", 8, 0.05)],
    ]
    points = [
        ScenarioPoint(link=link, mix=tuple(mix), duration=2.0, seed=3)
        for mix in mixes
    ]
    solo = [run_mix(link, mix, duration=2.0, seed=3) for mix in mixes]
    with use_check(None):  # The rows decide, also under REPRO_CHECK=1.
        assert runs_vectorized(points) and not runs_vectorized(points[:1])
        assert run_mix_batch(points) == solo
        assert Engine().run_points(points) == solo
    assert set(solo[1].per_flow) == {"bbr@0.01", "cubic", "cubic@0.05"}
