"""First-class scenario schema (repro.scenario).

Covers the canonical bottleneck spec end-to-end: AQM and capacity-trace
parsing (every accepted spelling, every rejected one), canonical
``to_dict``/``from_dict`` round trips, the fingerprint property that two
differently-spelled-but-identical scenarios hash equal while any real
scenario change hashes differently, the field-coverage regression that
keeps ``link_params`` honest when the schema grows, the CLI's
``scenario_overrides`` context, scalar-vs-vectorized *bitwise* parity on
AQM and traced-capacity scenarios, and seeded accounting defects that
the sanitizer must catch (corrupt AQM drop split, corrupt ECN marks,
illegal capacity steps).
"""

import dataclasses

import pytest

from repro.check import Checker, InvariantViolation
from repro.exec.fingerprint import ScenarioPoint, link_params
from repro.fluidsim import FluidSpec, run_fluid, run_fluid_vec
from repro.obs import Telemetry
from repro.scenario import (
    AQM_KINDS,
    DROP_TAIL,
    TRACE_KINDS,
    BottleneckSpec,
    CoDelSpec,
    ConstantTrace,
    REDSpec,
    SampledTrace,
    StepsTrace,
    aqm_from_dict,
    parse_aqm,
    parse_capacity_trace,
    scenario_overrides,
    trace_from_dict,
)
from repro.sim.link import Link
from repro.sim.network import FlowSpec, run_dumbbell
from repro.util.config import LinkConfig


def small_link(mbps=10, rtt=20, bdp=5, **scenario):
    return BottleneckSpec.from_mbps_ms(mbps, rtt, bdp, **scenario)


# -- AQM parsing and validation --------------------------------------------


@pytest.mark.parametrize(
    "spelling",
    ["droptail", "drop-tail", "drop_tail", "tail", "none", "DropTail"],
)
def test_parse_aqm_droptail_spellings(spelling):
    assert parse_aqm(spelling) == DROP_TAIL


def test_parse_aqm_none_is_droptail():
    assert parse_aqm(None) is DROP_TAIL


@pytest.mark.parametrize(
    "spelling,cls", [("red", REDSpec), ("CoDel", CoDelSpec)]
)
def test_parse_aqm_kind_strings(spelling, cls):
    assert parse_aqm(spelling) == cls()


def test_parse_aqm_passes_instances_through():
    spec = REDSpec(max_p=0.2)
    assert parse_aqm(spec) is spec


def test_parse_aqm_accepts_partial_dicts():
    spec = parse_aqm({"kind": "red", "ecn": True})
    assert spec == REDSpec(ecn=True)
    assert spec.max_p == REDSpec().max_p  # Missing fields take defaults.


def test_parse_aqm_ecn_override():
    assert parse_aqm("red", ecn=True) == REDSpec(ecn=True)
    assert parse_aqm(REDSpec(ecn=True), ecn=False) == REDSpec(ecn=False)
    # ecn=False on drop-tail is a no-op, not an error.
    assert parse_aqm(None, ecn=False) is DROP_TAIL


def test_parse_aqm_ecn_requires_an_aqm():
    with pytest.raises(ValueError, match="ECN marking requires an AQM"):
        parse_aqm(None, ecn=True)
    with pytest.raises(ValueError, match="ECN marking requires an AQM"):
        parse_aqm("droptail", ecn=True)


def test_parse_aqm_rejects_unknown_spellings():
    with pytest.raises(ValueError, match="aqm must be one of"):
        parse_aqm("pie")
    with pytest.raises(ValueError, match="cannot interpret"):
        parse_aqm(3.14)


def test_aqm_from_dict_rejects_typos():
    with pytest.raises(ValueError, match="needs a 'kind' key"):
        aqm_from_dict({"ecn": True})
    with pytest.raises(ValueError, match="unknown REDSpec keys"):
        aqm_from_dict({"kind": "red", "max_prob": 0.2})


@pytest.mark.parametrize(
    "kwargs",
    [
        {"min_frac": 0.0},
        {"min_frac": 0.6, "max_frac": 0.5},
        {"max_frac": 1.5},
        {"max_p": 0.0},
        {"max_p": 2.0},
        {"weight": 0.0},
        {"weight": float("nan")},
    ],
)
def test_red_spec_validation(kwargs):
    with pytest.raises(ValueError):
        REDSpec(**kwargs)


@pytest.mark.parametrize("kwargs", [{"target": 0.0}, {"interval": -1.0}])
def test_codel_spec_validation(kwargs):
    with pytest.raises(ValueError):
        CoDelSpec(**kwargs)


@pytest.mark.parametrize("kind", AQM_KINDS)
def test_aqm_to_dict_round_trips(kind):
    spec = parse_aqm(kind)
    assert aqm_from_dict(spec.to_dict()) == spec


def test_aqm_round_trip_preserves_non_defaults():
    spec = REDSpec(min_frac=0.1, max_frac=0.9, max_p=0.5, ecn=True, seed=7)
    assert aqm_from_dict(spec.to_dict()) == spec


# -- capacity-trace parsing and behavior -----------------------------------


@pytest.mark.parametrize("spelling", [None, "constant", " Constant "])
def test_parse_trace_constant_spellings(spelling):
    assert parse_capacity_trace(spelling) == ConstantTrace()


def test_parse_trace_steps_dsl():
    trace = parse_capacity_trace("steps:5@0.5,10@1.0")
    assert trace == StepsTrace(steps=((5.0, 0.5), (10.0, 1.0)))
    assert trace.scale_at(0.0) == 1.0
    assert trace.scale_at(5.0) == 0.5
    assert trace.scale_at(9.99) == 0.5
    assert trace.scale_at(10.0) == 1.0
    assert trace.change_events() == ((5.0, 0.5), (10.0, 1.0))


def test_parse_trace_sampled_dsl():
    trace = parse_capacity_trace("trace:2:1,0.5,0.8")
    assert trace == SampledTrace(period=2.0, scales=(1.0, 0.5, 0.8))
    assert trace.scale_at(0.0) == 1.0
    assert trace.scale_at(2.0) == 0.5
    assert trace.scale_at(100.0) == 0.8  # Last sample holds forever.


def test_sampled_trace_collapses_equal_samples():
    trace = SampledTrace(period=1.0, scales=(0.5, 0.5, 0.8, 0.8, 0.5))
    # Only genuine changes become events; the t=0 sample is initial state.
    assert trace.change_events() == ((2.0, 0.8), (4.0, 0.5))


@pytest.mark.parametrize(
    "spelling",
    [
        "steps:10@0.5,5@1.0",  # Non-increasing times.
        "steps:0@0.5",  # t=0 is the initial scale, not a step.
        "steps:5@-1",  # Negative scale.
        "steps:5",  # Missing @SCALE.
        "trace:2:",  # No samples.
        "trace:0:1,2",  # Zero period.
        "trace:-1:1",  # Negative period.
        "ramp:1,2",  # Unknown kind.
        "trace:5",  # Missing sample list.
    ],
)
def test_parse_trace_rejects_bad_dsl(spelling):
    with pytest.raises(ValueError):
        parse_capacity_trace(spelling)


def test_trace_from_dict_rejects_typos():
    with pytest.raises(ValueError, match="needs a 'kind' key"):
        trace_from_dict({"steps": [[5, 0.5]]})
    with pytest.raises(ValueError, match="unknown steps-trace keys"):
        trace_from_dict({"kind": "steps", "step": [[5, 0.5]]})
    with pytest.raises(ValueError, match="constant trace takes no keys"):
        trace_from_dict({"kind": "constant", "period": 1})
    with pytest.raises(ValueError, match="trace kind must be one of"):
        trace_from_dict({"kind": "ramp"})


@pytest.mark.parametrize(
    "trace",
    [
        ConstantTrace(),
        StepsTrace(steps=((3.0, 0.25), (9.0, 1.0))),
        SampledTrace(period=0.5, scales=(1.0, 0.7, 0.7, 1.2)),
    ],
)
def test_trace_to_dict_round_trips(trace):
    assert trace_from_dict(trace.to_dict()) == trace
    assert sorted(TRACE_KINDS) == sorted(("constant", "steps", "trace"))


# -- the bottleneck spec ---------------------------------------------------


def test_linkconfig_is_the_scenario_spec():
    """The historical LinkConfig name is an alias, not a parallel type."""
    assert LinkConfig is BottleneckSpec


def test_default_spec_is_the_paper_scenario():
    link = small_link()
    assert link.aqm is DROP_TAIL
    assert link.capacity_trace == ConstantTrace()
    assert link.is_default_scenario
    assert link.scenario_family == "droptail"


def test_scenario_classification():
    assert not small_link(aqm="red").is_default_scenario
    assert not small_link(capacity_trace="steps:5@0.5").is_default_scenario
    assert small_link(aqm="codel").scenario_family == "codel"


def test_spec_coerces_spellings_in_constructor():
    link = BottleneckSpec(
        capacity=1.25e6,
        rtt=0.02,
        buffer_bdp=5,
        aqm={"kind": "red", "ecn": True},
        capacity_trace="steps:5@0.5",
    )
    assert link.aqm == REDSpec(ecn=True)
    assert link.capacity_trace == StepsTrace(steps=((5.0, 0.5),))


def test_spec_to_dict_round_trips():
    link = small_link(aqm="codel", ecn=True, capacity_trace="trace:2:1,0.5")
    clone = BottleneckSpec.from_dict(link.to_dict())
    assert clone == link
    assert clone.to_dict() == link.to_dict()


def test_with_aqm_and_with_capacity_trace_return_copies():
    base = small_link()
    red = base.with_aqm("red", ecn=True)
    stepped = base.with_capacity_trace("steps:5@0.5")
    assert base.is_default_scenario  # Originals untouched (frozen).
    assert red.aqm == REDSpec(ecn=True)
    assert stepped.capacity_trace == StepsTrace(steps=((5.0, 0.5),))
    assert red.capacity == base.capacity


# -- fingerprint identity properties ---------------------------------------


def _fingerprint(link):
    return ScenarioPoint(
        link=link, mix=(("cubic", 1), ("bbr", 1)), duration=10.0
    ).fingerprint()


def test_differently_spelled_scenarios_fingerprint_equal():
    """String, dict, instance, and default spellings of one scenario
    must produce the same canonical dict and the same fingerprint."""
    spellings = [
        small_link(aqm="red", ecn=True),
        small_link(aqm={"kind": "red", "ecn": True}),
        small_link(aqm=REDSpec(ecn=True)),
        small_link().with_aqm("red", ecn=True),
    ]
    dicts = {str(sorted(s.to_dict().items())) for s in spellings}
    assert len(dicts) == 1
    assert len({_fingerprint(s) for s in spellings}) == 1


def test_default_and_explicit_droptail_fingerprint_equal():
    implicit = small_link()
    explicit = small_link(aqm="drop-tail", capacity_trace="constant")
    assert implicit == explicit
    assert _fingerprint(implicit) == _fingerprint(explicit)


def test_scenario_changes_change_the_fingerprint():
    base = small_link()
    variants = [
        small_link(aqm="red"),
        small_link(aqm="red", ecn=True),
        small_link(aqm="codel"),
        small_link(capacity_trace="steps:5@0.5"),
        small_link(capacity_trace="trace:5:1,0.5"),
        small_link(aqm=REDSpec(max_p=0.2)),
    ]
    prints = [_fingerprint(v) for v in [base] + variants]
    assert len(set(prints)) == len(prints)


def test_link_params_covers_every_spec_field():
    """Regression for the silent-truncation bug: if BottleneckSpec grows
    a field that ``link_params`` does not serialize, two different
    scenarios would silently share a cache entry.  This fails the moment
    a new field is added without extending the canonical dict."""
    link = small_link(aqm="red", ecn=True, capacity_trace="steps:5@0.5")
    params = link_params(link)
    for spec_field in dataclasses.fields(BottleneckSpec):
        assert spec_field.name in params, (
            f"BottleneckSpec.{spec_field.name} is missing from "
            "link_params: extend BottleneckSpec.to_dict (and bump "
            "CACHE_SCHEMA) or cached results will collide"
        )
    # And the sub-specs serialize their full payload, not a summary.
    assert params["aqm"] == link.aqm.to_dict()
    assert params["capacity_trace"] == link.capacity_trace.to_dict()


def test_scenario_point_rejects_unknown_backend():
    with pytest.raises(ValueError, match="backend must be one of"):
        ScenarioPoint(link=small_link(), mix=(("bbr", 1),), backend="ns3")


# -- scenario_overrides (CLI flags -> internally built links) --------------


def test_overrides_fill_unset_arguments():
    with scenario_overrides(aqm="red", ecn=True, capacity_trace="steps:5@0.5"):
        link = small_link()
    assert link.aqm == REDSpec(ecn=True)
    assert link.capacity_trace == StepsTrace(steps=((5.0, 0.5),))


def test_explicit_arguments_beat_overrides():
    with scenario_overrides(aqm="red", ecn=True, capacity_trace="steps:5@0.5"):
        link = small_link(aqm="codel", capacity_trace="trace:2:1,0.5")
    assert link.aqm == CoDelSpec()  # Explicit aqm also suppresses ecn=True.
    assert link.capacity_trace == SampledTrace(period=2.0, scales=(1.0, 0.5))


def test_overrides_nest_and_restore():
    with scenario_overrides(aqm="red"):
        with scenario_overrides(aqm="codel"):
            assert isinstance(small_link().aqm, CoDelSpec)
        assert isinstance(small_link().aqm, REDSpec)
    assert small_link().aqm is DROP_TAIL


def test_empty_override_is_a_noop():
    with scenario_overrides():
        assert small_link() == small_link()
        assert small_link().is_default_scenario


# -- scalar vs. vectorized fluid: bitwise parity on scenarios --------------

#: A shallow buffer so AQM and overflow both fire.
PARITY_LINK_ARGS = dict(mbps=20, rtt=20, bdp=1.5)

SCENARIOS = {
    "red": dict(aqm="red"),
    "red-ecn": dict(aqm="red", ecn=True),
    "codel": dict(aqm="codel"),
    "codel-ecn": dict(aqm="codel", ecn=True),
    "steps": dict(capacity_trace="steps:3@0.5,6@1.0"),
    "red-trace": dict(aqm="red", capacity_trace="trace:2:1,0.6,1.0"),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_vec_matches_scalar_bitwise_on_scenarios(name):
    link = small_link(**PARITY_LINK_ARGS, **SCENARIOS[name])
    flows = [FluidSpec(cc=cc) for cc in ("cubic", "bbr", "cubic", "bbr")]
    kwargs = dict(duration=10.0, warmup=2.0, seed=11, start_jitter=0.4)
    scalar = run_fluid(link, flows, **kwargs)
    vec = run_fluid_vec(link, flows, **kwargs)
    assert vec == scalar


def test_fluid_red_actually_drops():
    """The RED scenario must differ from drop-tail, or the parity test
    above would pass vacuously on a dead code path."""
    flows = [FluidSpec(cc="cubic"), FluidSpec(cc="bbr")]
    kwargs = dict(duration=10.0, warmup=2.0, seed=3)
    plain = run_fluid(small_link(**PARITY_LINK_ARGS), flows, **kwargs)
    red = run_fluid(
        small_link(**PARITY_LINK_ARGS, aqm="red"), flows, **kwargs
    )
    assert red != plain
    assert red.drop_rate > plain.drop_rate


def test_fluid_capacity_trace_throttles_throughput():
    flows = [FluidSpec(cc="cubic")]
    kwargs = dict(duration=10.0, warmup=0.0, seed=3)
    plain = run_fluid(small_link(**PARITY_LINK_ARGS), flows, **kwargs)
    halved = run_fluid(
        small_link(**PARITY_LINK_ARGS, capacity_trace="steps:1@0.5"),
        flows,
        **kwargs,
    )
    total = lambda result: sum(f.throughput for f in result.flows)
    assert total(halved) < 0.75 * total(plain)


def test_fluid_ecn_marks_instead_of_dropping():
    obs = Telemetry()
    link = small_link(**PARITY_LINK_ARGS, aqm="codel", ecn=True)
    run_fluid(
        link,
        [FluidSpec(cc="cubic"), FluidSpec(cc="bbr")],
        duration=10.0,
        warmup=2.0,
        seed=3,
        obs=obs,
    )
    assert obs.counter("link.ecn_marks") > 0
    assert obs.counter("link.aqm_drops") == 0


def test_fluid_trace_emits_capacity_change_events():
    obs = Telemetry()
    link = small_link(**PARITY_LINK_ARGS, capacity_trace="steps:3@0.5,6@1.0")
    run_fluid(
        link, [FluidSpec(cc="cubic")], duration=10.0, seed=3, obs=obs
    )
    assert obs.counter("link.capacity_changes") == 2


# -- seeded defects: the sanitizer must catch broken AQM accounting --------


class SplitCorruptingLink(Link):
    """A broken link that double-counts AQM drops in the split."""

    def _record_drop(self, packet, now, aqm=False):
        super()._record_drop(packet, now, aqm=aqm)
        if aqm:
            # The seeded defect: aqm_dropped_bytes outruns dropped_bytes.
            self.stats.aqm_dropped_bytes += packet.size


class MarkCorruptingLink(Link):
    """A broken link whose ECN-mark counter runs wild."""

    def _record_mark(self, packet, now):
        super()._record_mark(packet, now)
        self.stats.marked_bytes += 10**12  # More than ever passed through.


def _run_packet_aqm(link, check):
    return run_dumbbell(
        link,
        [FlowSpec(cc="cubic"), FlowSpec(cc="cubic")],
        duration=10.0,
        check=check,
    )


def test_corrupt_aqm_drop_split_trips_conservation(monkeypatch):
    monkeypatch.setattr("repro.sim.network.Link", SplitCorruptingLink)
    link = small_link(bdp=2, aqm="red")
    with pytest.raises(InvariantViolation) as excinfo:
        _run_packet_aqm(link, Checker())
    exc = excinfo.value
    assert exc.check == "link.conservation"
    assert "drop split" in exc.message or "AQM" in exc.message


def test_corrupt_ecn_marks_trip_conservation(monkeypatch):
    monkeypatch.setattr("repro.sim.network.Link", MarkCorruptingLink)
    link = small_link(bdp=2, aqm="codel", ecn=True)
    with pytest.raises(InvariantViolation) as excinfo:
        _run_packet_aqm(link, Checker())
    assert excinfo.value.check == "link.conservation"
    assert "marked" in excinfo.value.message


def test_illegal_capacity_step_trips_trace_check():
    check = Checker()
    with pytest.raises(InvariantViolation) as excinfo:
        check.capacity_change(1.0, 0.0)
    assert excinfo.value.check == "link.capacity_trace"
    with pytest.raises(InvariantViolation):
        check.capacity_change(1.0, float("nan"))


@pytest.mark.parametrize(
    "scenario",
    [
        dict(aqm="red"),
        dict(aqm="codel", ecn=True),
        dict(capacity_trace="steps:3@0.5"),
    ],
)
def test_packet_aqm_runs_clean_under_sanitizer(scenario):
    check = Checker()
    link = small_link(bdp=2, **scenario)
    _run_packet_aqm(link, check)
    assert check.checks_run > 0


@pytest.mark.parametrize("runner", [run_fluid, run_fluid_vec])
def test_fluid_aqm_runs_clean_under_sanitizer(runner):
    check = Checker()
    link = small_link(
        **PARITY_LINK_ARGS, aqm="red", capacity_trace="steps:3@0.5"
    )
    runner(
        link,
        [FluidSpec(cc="cubic"), FluidSpec(cc="bbr")],
        duration=8.0,
        warmup=2.0,
        seed=3,
        check=check,
    )
    assert check.checks_run > 0
