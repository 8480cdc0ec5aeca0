"""The campaign vocabulary: identity, round-trips, table completeness.

``campaign_identity.json`` was generated at the commit *before* the
vocabulary tables replaced the per-kind chains (``python -m
tests.identity campaign`` rewrites it from the specs below): spec
fingerprints and unit ids key journals, so they must never move.
"""

import json
from dataclasses import fields
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    Stage,
    Unit,
    expand_units,
    parse_spec,
)
from repro.campaign.vocab import (
    AXES,
    DEFAULT_PARAMS,
    KINDS,
    LINK_PARAMS,
    PARAMS,
)
from repro.scenario import LOSS_MODES
from repro.util.config import LinkConfig
from tests.identity import campaign_table, load

ROOT = Path(__file__).resolve().parent.parent

#: Copies of the two campaign shapes ``benchmarks/e2e/workloads.py``
#: builds (seed 0, full size).
NE_SEARCH = {
    "name": "bench-ne-search",
    "link": {"bandwidth_mbps": 100.0, "rtt_ms": 40.0, "buffer_bdp": 1.0},
    "defaults": {
        "duration": 60.0,
        "backend": "fluid",
        "trials": 1,
        "seed": 0,
    },
    "axes": [{"name": "buffer_bdp", "values": [2]}],
    "stages": [
        {"name": "ne", "type": "adaptive", "flows": 10, "searches": 1}
    ],
}
WARM_RESUME = {
    "name": "bench-warm-resume",
    "link": {"bandwidth_mbps": 50.0, "rtt_ms": 40.0, "buffer_bdp": 1.0},
    "defaults": {
        "duration": 2.0,
        "backend": "fluid",
        "trials": 1,
        "seed": 0,
        "mix": "cubic:1,bbr:1",
    },
    "axes": [
        {
            "name": "buffer_bdp",
            "values": [0.5, 1, 2, 3, 5, 8, 10, 15, 20, 30],
        },
        {"name": "rtt_ms", "values": [20, 80]},
        {"name": "seed", "values": list(range(15))},
    ],
    "stages": [{"name": "grid", "type": "sweep"}],
}

#: One spec per stage kind that sets every option (and, for the sweep,
#: every scenario parameter) away from its default.
EVERY_LINK = {
    "bandwidth_mbps": 30.0,
    "rtt_ms": 25.0,
    "buffer_bdp": 3.0,
    "mss": 1200,
    "aqm": "red",
    "ecn": True,
    "capacity_trace": "steps:2@0.5",
}
EVERY_SWEEP = {
    "name": "every-sweep",
    "description": "every scenario parameter, set and swept",
    "expand": "zip",
    "link": EVERY_LINK,
    "defaults": {
        "duration": 7.0,
        "backend": "packet",
        "trials": 2,
        "seed": 11,
        "loss_mode": "desync",
        "mix": "cubic:3,bbr:1",
    },
    "axes": [
        {"name": "bandwidth_mbps", "values": [10, 20.0]},
        {"name": "rtt_ms", "values": [10.0, 30]},
        {"name": "buffer_bdp", "values": [0.5, 2]},
        {"name": "duration", "values": [4, 5.5]},
        {"name": "seed", "values": [3, 4]},
        {"name": "trials", "values": [1, 2]},
        {"name": "backend", "values": ["fluid", "fluid-vec"]},
        {"name": "loss_mode", "values": ["sync", "proportional"]},
        {"name": "aqm", "values": ["codel", "red"]},
        {"name": "ecn", "values": [False, True]},
        {"name": "capacity_trace", "values": ["constant", "steps:1@0.7"]},
        {"name": "mix", "values": ["cubic:2", [["reno", 1], ["bbr", 2]]]},
    ],
    "stages": [{"name": "a", "type": "sweep"}, {"name": "b"}],
    "metrics": {"columns": ["loss_rate:bbr", "drop_rate"]},
    "output": {"csv": "every.csv"},
}
EVERY_ADAPTIVE = {
    "name": "every-adaptive",
    "link": EVERY_LINK,
    "defaults": {"duration": 9.0, "loss_mode": "sync", "seed": 5},
    "axes": [
        {"name": "buffer_bdp", "values": [1, 4.5]},
        {"name": "rtt_ms", "values": [20.0]},
    ],
    "stages": [
        {
            "name": "ne",
            "type": "adaptive",
            "flows": 6,
            "challenger": "bbr2",
            "incumbent": "reno",
            "searches": 3,
            "seed_stride": 13,
        }
    ],
}
EVERY_POPULATION = {
    "name": "every-population",
    "link": EVERY_LINK,
    "defaults": {"duration": 5.0, "trials": 2, "seed": 9},
    "axes": [
        {"name": "dynamics", "values": ["logit", "best-response"]},
        {"name": "epsilon", "values": [0.1, 1]},
        {"name": "buffer_bdp", "values": [2]},
    ],
    "stages": [
        {
            "name": "adopt",
            "type": "population",
            "flows": 12,
            "challenger": "bbr2",
            "incumbent": "reno",
            "dynamics": "logit",
            "ticks": 7,
            "epsilon": 0.4,
            "mutation": 0.05,
            "inertia": 0.25,
            "init_share": 0.3,
            "error_threshold": 0.2,
        }
    ],
}


def test_identity_matches_golden_table():
    golden = load("campaign")
    table = campaign_table()
    assert sorted(table) == sorted(golden)
    assert table["bench-warm-resume"]["units"] == 300
    for name, entry in table.items():
        assert entry == golden[name], name


# -- table completeness ------------------------------------------------------

#: The every-option spec of each kind, keyed like ``KINDS``.
EVERY = {
    "sweep": EVERY_SWEEP,
    "adaptive": EVERY_ADAPTIVE,
    "population": EVERY_POPULATION,
}


def test_every_declared_name_is_parsed_serialized_hashed_and_documented():
    """A row added to a table must work end to end: ``parse_spec``
    takes it, ``to_dict`` writes it, ``Unit.params`` hashes it and
    ``docs/CAMPAIGNS.md`` names it.  The ``EVERY_*`` specs set each
    declared name away from its default, so they double as the probe
    (and must grow with the tables)."""
    docs = (ROOT / "docs" / "CAMPAIGNS.md").read_text()
    options = [o.name for kind in KINDS.values() for o in kind.options]
    for name in [p.name for p in PARAMS] + list(AXES) + list(KINDS) + options:
        assert f"`{name}`" in docs, f"{name} is not in docs/CAMPAIGNS.md"

    # [link] and [defaults].
    defaults = EVERY_SWEEP["defaults"]
    assert set(EVERY_LINK) == {p.name for p in LINK_PARAMS}
    assert set(defaults) == {p.name for p in DEFAULT_PARAMS}
    for param in LINK_PARAMS + DEFAULT_PARAMS:
        assert {**EVERY_LINK, **defaults}[param.name] != param.default
    spec = parse_spec(
        {**EVERY_SWEEP, "axes": [{"name": "seed", "values": [11]}]}
    )
    assert spec.link == LinkConfig.from_mbps_ms(
        30.0,
        25.0,
        3.0,
        mss=1200,
        aqm="red",
        ecn=True,
        capacity_trace="steps:2@0.5",
    )
    written = spec.to_dict()
    assert written["defaults"] == {
        **defaults,
        "mix": [["cubic", 3], ["bbr", 1]],
    }
    assert parse_spec(written).link == spec.link  # to_dict keeps all seven.
    params = expand_units(spec)[0].params()
    assert params["link"] == spec.link.to_dict()
    assert params["mix"] == spec.mix
    assert {k: params[k] for k in defaults if k != "mix"} == {
        k: v for k, v in defaults.items() if k != "mix"
    }

    # Stage options, kind by kind.
    assert set(EVERY) == set(KINDS)
    for name, data in EVERY.items():
        kind = KINDS[name]
        spec = parse_spec(json.loads(json.dumps(data)))
        entry = data["stages"][0]
        assert spec.to_dict()["stages"][0] == entry
        assert set(entry) - {"name", "type"} == {o.name for o in kind.options}
        units = [u for u in expand_units(spec) if u.stage == entry["name"]]
        for option in kind.options:
            assert entry[option.name] != option.default, option.name
            if option.name == kind.replicas:
                hashed = {unit.params()["search"] for unit in units}
                expected = set(range(entry[option.name]))
            else:
                hashed = {unit.params()[option.name] for unit in units}
                axis = spec.axis(option.name)
                expected = set(axis.values) if axis else {entry[option.name]}
            assert hashed == expected, option.name


# -- round-trip property (ROADMAP item 4) ------------------------------------

#: Legal values per sweepable name.  ``aqm`` leaves out drop-tail so an
#: ``ecn`` axis stays legal at expansion time.
AXIS_VALUES = {
    "bandwidth_mbps": st.floats(1, 1000) | st.integers(1, 1000),
    "rtt_ms": st.floats(1, 500) | st.integers(1, 500),
    "buffer_bdp": st.floats(0.1, 250) | st.integers(1, 250),
    "duration": st.floats(1, 120) | st.integers(1, 120),
    "seed": st.integers(0, 10**6),
    "trials": st.integers(1, 4),
    "backend": st.sampled_from(["fluid", "packet", "fluid-vec"]),
    "loss_mode": st.sampled_from(LOSS_MODES),
    "aqm": st.sampled_from(["red", "codel"]),
    "ecn": st.booleans(),
    "capacity_trace": st.sampled_from(["constant", "steps:2@0.5"]),
    "mix": st.sampled_from(
        ["cubic:1,bbr:1", "cubic:2", [["reno", 1], ["bbr", 2]]]
    ),
    "epsilon": st.floats(0.01, 1),
    "dynamics": st.sampled_from(["replicator", "best-response", "logit"]),
}
OPTION_VALUES = {
    "flows": st.integers(2, 50),
    "searches": st.integers(1, 3),
    "seed_stride": st.integers(1, 10**4),
    "ticks": st.integers(1, 100),
    "mutation": st.floats(0, 0.99),
    "inertia": st.floats(0, 0.99),
    "init_share": st.floats(0, 1),
    "error_threshold": st.floats(0.01, 1),
    "epsilon": AXIS_VALUES["epsilon"],
    "dynamics": AXIS_VALUES["dynamics"],
}


@st.composite
def spec_data(draw):
    kinds = draw(
        st.lists(st.sampled_from(list(KINDS)), min_size=1, max_size=2)
    )
    stages = []
    for i, kind in enumerate(kinds):
        entry = {"name": f"s{i}", "type": kind}
        for option in KINDS[kind].options:
            if option.name in OPTION_VALUES and draw(st.booleans()):
                entry[option.name] = draw(OPTION_VALUES[option.name])
        if KINDS[kind].options:
            entry["flows"] = draw(OPTION_VALUES["flows"])
            entry["challenger"], entry["incumbent"] = draw(
                st.permutations(["cubic", "bbr", "bbr2", "reno"])
            )[:2]
        stages.append(entry)
    # An axis must be consumed by some stage; ``mix`` by every stage.
    sweepable = sorted(
        name
        for name in AXES
        if any(name in KINDS[kind].params for kind in kinds)
        and (name != "mix" or all("mix" in KINDS[k].params for k in kinds))
    )
    names = draw(
        st.lists(
            st.sampled_from(sweepable), min_size=1, max_size=3, unique=True
        )
    )
    length = draw(st.integers(1, 2))
    defaults = {
        param.name: draw(AXIS_VALUES[param.name])
        for param in DEFAULT_PARAMS
        if draw(st.booleans())
    }
    if any("mix" in KINDS[kind].params for kind in kinds):
        defaults["mix"] = draw(AXIS_VALUES["mix"])
    return {
        "name": "generated",
        "expand": draw(st.sampled_from(["grid", "zip"])),
        "link": {"aqm": "red", "ecn": draw(st.booleans())},
        "defaults": defaults,
        "axes": [
            {
                "name": name,
                "values": draw(
                    st.lists(
                        AXIS_VALUES[name], min_size=length, max_size=length
                    )
                ),
            }
            for name in names
        ],
        "stages": stages,
    }


def test_value_strategies_cover_the_tables():
    assert set(AXIS_VALUES) == set(AXES)
    options = {o.name for kind in KINDS.values() for o in kind.options}
    assert set(OPTION_VALUES) | {"challenger", "incumbent"} == options
    # Options are published as attributes of Stage and Unit, so one
    # named like a field (or a scenario parameter) would shadow it.
    taken = {f.name for cls in (Stage, Unit) for f in fields(cls)}
    assert not options & (taken | {p.name for p in PARAMS})


@settings(max_examples=40, deadline=None)
@given(spec_data())
def test_spec_round_trips_and_expands_deterministically(data):
    spec = parse_spec(data)
    again = parse_spec(json.loads(json.dumps(spec.to_dict())))
    assert again == spec
    assert again.fingerprint() == spec.fingerprint()
    ids = [unit.unit_id() for unit in expand_units(spec)]
    assert ids == [unit.unit_id() for unit in expand_units(again)]
    assert len(set(ids)) == len(ids) > 0
