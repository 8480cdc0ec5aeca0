"""A stage's searches and trajectories advance in rounds.

``repro.campaign.vocab._in_rounds`` is the campaign layer's one way to
run concurrent work: every live unit of an ``adaptive`` or
``population`` stage is resumed in unit order, and what they ask for
next is *one* ``Engine.run_points`` batch.  Counted here on
``conftest.CountingEngine`` and read from spans in completion order —
no assertion depends on a clock except the two about ``wall_s`` itself.

``lockstep_identity.json`` pins the CSV and ``error_map.json`` bytes of
a small population campaign as the commit *before* the driver wrote
them (threads, one ``run_points`` per unit per tick); ``python -m
tests.identity lockstep`` is how it was written, from a clone of that
commit (``PYTHONPATH=<clone>/src``).  If the pin moves, explain which
point changed before re-pinning.
"""

import filecmp
import json
from time import perf_counter

import pytest

from repro.campaign import (
    Journal,
    expand_units,
    iter_units,
    parse_spec,
    run_campaign,
)
from repro.exec import Engine, ResultCache
from tests.identity import load, population_artifacts

IDENTITY = load("lockstep")

FLOWS = 8
BUFFERS = [1, 2, 3, 5]
SEARCHES = 2


def adaptive_spec(buffers=BUFFERS, searches=SEARCHES):
    """``len(buffers) × searches`` short 8-flow NE searches.  The
    default eight are 64 flow rows in their first round — the
    vectorized threshold — and two to five rounds deep, so the last
    rounds are narrow."""
    return parse_spec(
        {
            "name": "lockstep",
            "link": {"bandwidth_mbps": 100.0, "rtt_ms": 40.0, "buffer_bdp": 1},
            "defaults": {"duration": 5.0, "backend": "fluid"},
            "axes": [{"name": "buffer_bdp", "values": buffers}],
            "stages": [
                {"type": "adaptive", "flows": FLOWS, "searches": searches}
            ],
        }
    )


def solo_calls(unit, engine):
    """What one search asks ``engine`` (a fresh ``CountingEngine``) for
    when it runs alone: the fingerprints of each ``run_points`` call,
    hand-wired as figure 9 always did."""
    from repro.core.game import GroupGame, bisect_nash
    from repro.experiments.runner import distribution_payoff_fn

    payoff = distribution_payoff_fn(
        unit.link,
        FLOWS,
        duration=5.0,
        backend="fluid",
        seed=7919 * unit.search,
        engine=engine,
    )
    bisect_nash(GroupGame([FLOWS], payoff))
    return engine.calls


def journaled(out):
    return [record.unit_id for record in Journal.in_dir(out).iter_records()]


# -- shape -------------------------------------------------------------------


def test_a_round_is_one_batch_of_every_live_search(counting_engine):
    spec = adaptive_spec()
    units = expand_units(spec)
    outcomes = list(iter_units(spec, units, engine=counting_engine))
    assert len(outcomes) == len(units) == 8

    fresh = type(counting_engine)
    alone = [solo_calls(unit, fresh()) for unit in units]
    deepest = max(len(calls) for calls in alone)
    assert min(len(calls) for calls in alone) < deepest  # Ragged stage.
    # Call r is round r of every search that has one, in unit order.
    assert counting_engine.calls == [
        sum((calls[r] for calls in alone if r < len(calls)), [])
        for r in range(deepest)
    ]
    flat = sum(counting_engine.calls, [])
    assert len(flat) == len(set(flat)) == counting_engine.simulated
    # Searches finish as their last round does — shallow ones first,
    # ties in unit order — whatever ``jobs`` is.
    assert [outcome.index for outcome in outcomes] == sorted(
        range(len(units)), key=lambda i: (len(alone[i]), i)
    )


def rounds_and_batches(tracer):
    """``(round span, point_batch spans recorded inside it)`` pairs —
    spans are appended as they finish, so a round's children precede
    it."""
    pairs, inside = [], []
    for span in tracer.spans:
        if span.name == "point_batch":
            inside.append(span)
        elif span.name == "round":
            pairs.append((span, inside))
            inside = []
    return pairs


def test_a_round_picks_its_substrate_by_its_rows(tmp_path):
    from repro.check import Checker, use as use_check
    from repro.obs import Telemetry, use as use_obs
    from repro.obs.trace import Tracer, use as use_tracer

    spec = adaptive_spec()
    tracer = Tracer()
    with use_check(None), use_tracer(tracer):
        run_campaign(spec, tmp_path / "plain", engine=Engine())
    pairs = rounds_and_batches(tracer)
    assert [span.args["round"] for span, _ in pairs] == list(
        range(len(pairs))
    )
    first, _ = pairs[0]
    assert (first.args["live"], first.args["points"]) == (8, 8)
    assert first.args["rows"] == 8 * FLOWS
    wide = [len(inside) for span, inside in pairs if span.args["rows"] >= 64]
    narrow = [len(inside) for span, inside in pairs if span.args["rows"] < 64]
    assert wide and set(wide) == {1}  # One vectorized batch per round.
    assert narrow and set(narrow) == {0}
    assert not [s for s in tracer.spans if s.name == "unit"]

    # Instrumented, every round stays on the scalar loop: same bytes.
    for name, instrument in (
        ("telemetry", use_obs(Telemetry())),
        ("checked", use_check(Checker())),
    ):
        tracer = Tracer()
        with instrument, use_tracer(tracer):
            run_campaign(spec, tmp_path / name, engine=Engine())
        assert not [s for s in tracer.spans if s.name == "point_batch"]
        assert filecmp.cmp(
            tmp_path / "plain" / "results.csv",
            tmp_path / name / "results.csv",
            shallow=False,
        )


# -- kill, resume, stop ------------------------------------------------------


class Killed(Exception):
    pass


class DyingEngine(Engine):
    """Raises instead of running its fourth round."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.rounds = []

    def run_points(self, points):
        if len(self.rounds) == 3:
            raise Killed()
        self.rounds.append(len(points))
        return super().run_points(points)


def test_a_killed_stage_keeps_its_work_in_the_cache(tmp_path):
    spec = adaptive_spec()
    reference = Engine()
    run_campaign(spec, tmp_path / "ref", engine=reference)

    cache = tmp_path / "cache"
    dying = DyingEngine(cache=ResultCache(cache))
    with pytest.raises(Killed):
        run_campaign(spec, tmp_path / "out", engine=dying)
    assert dying.simulated == sum(dying.rounds) > 0
    done = journaled(tmp_path / "out")
    assert len(done) < 8  # Most units journal in the last rounds.

    resumed = Engine(cache=ResultCache(cache))
    summary = run_campaign(
        spec, tmp_path / "out", engine=resumed, resume=True
    )
    assert summary.from_journal == len(done)
    assert summary.executed == 8 - len(done)
    # Only points never evaluated are simulated; nothing twice.
    assert resumed.simulated == reference.simulated - dying.simulated
    assert filecmp.cmp(
        tmp_path / "ref" / "results.csv",
        tmp_path / "out" / "results.csv",
        shallow=False,
    )


def test_stop_after_starts_only_the_units_it_may_commit(
    tmp_path, counting_engine
):
    spec = adaptive_spec(buffers=[1, 2, 3])
    units = expand_units(spec)
    assert len(units) == 6
    summary = run_campaign(
        spec, tmp_path / "out", engine=counting_engine, stop_after=2
    )
    assert summary.interrupted and summary.executed == 2
    first_two = {unit.unit_id() for unit in units[:2]}
    assert set(journaled(tmp_path / "out")) == first_two
    fresh = type(counting_engine)
    assert sorted(sum(counting_engine.calls, [])) == sorted(
        fingerprint
        for unit in units[:2]
        for call in solo_calls(unit, fresh())
        for fingerprint in call
    )


# -- wall time and order -----------------------------------------------------


def test_unit_walls_are_shares_of_the_stage_wall(tmp_path):
    """Each unit is charged its advances and its share of every batch
    it took part in, so a stage's walls sum to (at most) its wall —
    under threads they summed to ~``jobs`` × it, and the ETA of a
    killed run (``status.campaign_progress``) read that sum."""
    spec = adaptive_spec(buffers=[1, 2])
    units = expand_units(spec)
    engine = Engine(cache=ResultCache(tmp_path / "cache"))
    start = perf_counter()
    cold = list(iter_units(spec, units, engine=engine))
    stage_wall = perf_counter() - start
    assert len(cold) == 4 and engine.simulated > 0
    assert all(outcome.wall_s > 0 for outcome in cold)
    assert sum(outcome.wall_s for outcome in cold) <= stage_wall + 1e-6

    warm = list(iter_units(spec, units, engine=engine))
    assert engine.hits > 0
    # Answered wholly from the cache: next to nothing.
    assert sum(o.wall_s for o in warm) < 0.25 * sum(o.wall_s for o in cold)


def population_spec():
    return parse_spec(IDENTITY["spec"])


def test_completion_and_merge_order_do_not_depend_on_timing(tmp_path):
    """``ErrorMap.merge`` is "theirs win"; under threads "theirs" was
    whichever unit finished last."""
    runs = []
    for name in ("a", "b"):
        with Engine(jobs=2) as engine:
            run_campaign(population_spec(), tmp_path / name, engine=engine)
        runs.append(journaled(tmp_path / name))
        assert (tmp_path / name / "error_map.json").read_bytes() == (
            tmp_path / "a" / "error_map.json"
        ).read_bytes()
    assert runs[0] == runs[1] and len(runs[0]) == 4

    spec = adaptive_spec(buffers=[1, 2, 3])
    for jobs in (1, 2):
        with Engine(jobs=jobs) as engine:
            run_campaign(spec, tmp_path / f"jobs{jobs}", engine=engine)
    assert journaled(tmp_path / "jobs1") == journaled(tmp_path / "jobs2")
    assert filecmp.cmp(
        tmp_path / "jobs1" / "results.csv",
        tmp_path / "jobs2" / "results.csv",
        shallow=False,
    )


# -- the population pin ------------------------------------------------------


def test_population_campaign_is_pinned(tmp_path):
    """Two regions: one the model serves after its calibration round
    (it finishes on its second advance), one escalated to a fluid
    batch per tick."""
    got = population_artifacts(IDENTITY["spec"], tmp_path / "out")
    assert got["csv"] == IDENTITY["csv"]
    assert got["error_map"] == IDENTITY["error_map"]
    tiers = {
        key: entry["tier"]
        for key, entry in json.loads(got["error_map"])["regions"].items()
    }
    assert sorted(tiers.values()) == [0, 1]

