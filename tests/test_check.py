"""Runtime invariant sanitizer (repro.check).

Covers the default/env plumbing, the checker's individual invariants,
law-table consistency with the canonical registry, violation pickling,
and the two seeded-defect end-to-end tests: a bottleneck link that
leaks a byte per drop, and a BBR adapter that performs an illegal
state-machine transition.
"""

import os
import pickle

import pytest

from repro.cc.base import _REGISTRY, register
from repro.cc.bbr import BBRv1
from repro.cc.laws import bbr as bbr_laws
from repro.cc.laws import bbr2 as bbr2_laws
from repro.cc.laws import state_names
from repro.check import (
    MAX_PENDING_EVENTS,
    Checker,
    InvariantViolation,
    clear_default,
    enabled_from_env,
    get_default,
    resolve,
    set_default,
    use,
)
from repro.check import laws as check_laws
from repro.experiments.runner import run_mix
from repro.fluidsim.core import FluidSpec, run_fluid
from repro.sim.link import Link
from repro.sim.network import FlowSpec, run_dumbbell
from repro.util.config import LinkConfig


@pytest.fixture(autouse=True)
def _clean_default():
    """Leave the process-wide checker state untouched by each test."""
    clear_default()
    saved = os.environ.pop("REPRO_CHECK", None)
    yield
    clear_default()
    if saved is None:
        os.environ.pop("REPRO_CHECK", None)
    else:
        os.environ["REPRO_CHECK"] = saved


def small_link(mbps=10, rtt=20, bdp=5):
    return LinkConfig.from_mbps_ms(mbps, rtt, bdp)


# -- default / environment plumbing ----------------------------------------


def test_default_is_disabled():
    assert get_default() is None
    assert resolve(None) is None


def test_explicit_checker_wins_over_default():
    check = Checker()
    assert resolve(check) is check


def test_set_default_and_clear():
    check = Checker()
    set_default(check)
    assert get_default() is check
    assert resolve(None) is check
    clear_default()
    assert get_default() is None


def test_env_enables_a_shared_checker():
    os.environ["REPRO_CHECK"] = "1"
    first = get_default()
    assert isinstance(first, Checker)
    assert get_default() is first  # One shared checker per process.


def test_explicit_none_disables_despite_env():
    os.environ["REPRO_CHECK"] = "1"
    set_default(None)
    assert get_default() is None
    with use(Checker()) as check:
        assert get_default() is check
    assert get_default() is None  # use() restored the explicit None.


@pytest.mark.parametrize("value", ["", "0", "false", "no", "off", " OFF "])
def test_env_falsey_values(value):
    assert not enabled_from_env({"REPRO_CHECK": value})


@pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
def test_env_truthy_values(value):
    assert enabled_from_env({"REPRO_CHECK": value})


def test_use_restores_previous_default():
    outer = Checker()
    set_default(outer)
    with use(None):
        assert get_default() is None
    assert get_default() is outer


def test_checker_rejects_bad_construction():
    with pytest.raises(ValueError):
        Checker(tolerance=-1.0)
    with pytest.raises(ValueError):
        Checker(recent=0)


# -- individual invariants --------------------------------------------------


def test_event_loop_clock_regression_trips():
    check = Checker()
    check.event_loop_tick(when=1.0, now=0.5, pending=3)  # Fine.
    with pytest.raises(InvariantViolation) as excinfo:
        check.event_loop_tick(when=0.4, now=0.5, pending=3)
    assert excinfo.value.check == "sim.clock"


def test_event_loop_queue_bound_trips():
    check = Checker()
    with pytest.raises(InvariantViolation) as excinfo:
        check.event_loop_tick(
            when=1.0, now=0.5, pending=MAX_PENDING_EVENTS + 1
        )
    assert excinfo.value.check == "sim.queue_bound"


def test_link_audit_conservation():
    check = Checker()
    check.link_audit(
        1.0,
        offered=100,
        forwarded=40,
        dropped=10,
        queued=30,
        in_service=20,
        buffer_bytes=1000,
        gauge=30,
    )
    with pytest.raises(InvariantViolation) as excinfo:
        check.link_audit(
            1.0,
            offered=101,
            forwarded=40,
            dropped=10,
            queued=30,
            in_service=20,
            buffer_bytes=1000,
            gauge=30,
        )
    assert excinfo.value.check == "link.conservation"


def test_link_audit_queue_bounds_and_gauge():
    check = Checker()
    with pytest.raises(InvariantViolation) as excinfo:
        check.link_audit(
            1.0,
            offered=2000,
            forwarded=0,
            dropped=0,
            queued=1500,
            in_service=500,
            buffer_bytes=1000,
            gauge=1500,
        )
    assert excinfo.value.check == "link.queue_bounds"
    with pytest.raises(InvariantViolation) as excinfo:
        check.link_audit(
            1.0,
            offered=100,
            forwarded=0,
            dropped=0,
            queued=50,
            in_service=50,
            buffer_bytes=1000,
            gauge=49,
        )
    assert excinfo.value.check == "link.occupancy_gauge"


class _StubCC:
    name = "cubic"
    cwnd = 30000.0
    min_cwnd = 3000.0
    pacing_rate = None
    mss = 1500


def test_flow_update_negative_inflight():
    check = Checker()
    with pytest.raises(InvariantViolation) as excinfo:
        check.flow_update(1.0, 0, _StubCC(), in_flight=-1)
    assert excinfo.value.check == "flow.inflight"
    assert excinfo.value.flow_id == 0
    assert excinfo.value.cc == "cubic"


def test_flow_update_cwnd_bounds():
    check = Checker()
    cc = _StubCC()
    cc.cwnd = float("nan")
    with pytest.raises(InvariantViolation) as excinfo:
        check.flow_update(1.0, 0, cc, in_flight=0)
    assert excinfo.value.check == "cc.cwnd_bounds"
    cc.cwnd = 100.0  # Below the 2-segment floor.
    with pytest.raises(InvariantViolation) as excinfo:
        check.flow_update(1.0, 0, cc, in_flight=0)
    assert excinfo.value.check == "cc.cwnd_bounds"


def test_flow_update_pacing_rate():
    check = Checker()
    cc = _StubCC()
    cc.pacing_rate = 0.0
    with pytest.raises(InvariantViolation) as excinfo:
        check.flow_update(1.0, 0, cc, in_flight=0)
    assert excinfo.value.check == "cc.pacing_rate"


def test_flow_update_bbr_gain_law():
    check = Checker()
    cc = BBRv1()
    check.flow_update(0.1, 0, cc, in_flight=0)  # Legal STARTUP gain.
    cc.pacing_gain = 1.1  # Not a legal gain in any BBRv1 phase.
    with pytest.raises(InvariantViolation) as excinfo:
        check.flow_update(0.2, 0, cc, in_flight=0)
    assert excinfo.value.check == "cc.law"
    assert "pacing gain" in excinfo.value.message


def test_state_transition_legal_and_illegal():
    check = Checker()
    check.state_transition(
        0.1, "bbr", 0, bbr_laws.STARTUP, bbr_laws.DRAIN, substrate="packet"
    )
    with pytest.raises(InvariantViolation) as excinfo:
        check.state_transition(
            0.2,
            "bbr",
            0,
            bbr_laws.PROBE_BW,
            bbr_laws.DRAIN,
            substrate="packet",
        )
    exc = excinfo.value
    assert exc.check == "cc.transition"
    assert exc.cc == "bbr"
    # The violation remembers the preceding legal transition.
    assert any(name == "cc.state" for _, name, _, _ in exc.recent)


def test_state_transition_unknown_state():
    check = Checker()
    with pytest.raises(InvariantViolation) as excinfo:
        check.state_transition(
            0.1, "bbr2", 0, bbr2_laws.STARTUP, "WARP", substrate="packet"
        )
    assert excinfo.value.check == "cc.state"


def test_state_transition_unconstrained_cca():
    check = Checker()
    # CUBIC has no state machine: any labels pass.
    check.state_transition(0.1, "cubic", 0, "A", "B", substrate="packet")
    check.state_transition(0.1, "nosuchcc", 0, "A", "B", substrate="packet")


def test_fluid_conservation_strict_and_clamped():
    check = Checker()
    check.fluid_conservation(
        1.0,
        total_rate=99.0,
        capacity=100.0,
        queue=10.0,
        buffer_bytes=100.0,
        slack=1.0,
        strict=True,
    )
    with pytest.raises(InvariantViolation) as excinfo:
        check.fluid_conservation(
            1.0,
            total_rate=102.0,
            capacity=100.0,
            queue=10.0,
            buffer_bytes=100.0,
            slack=1.0,
            strict=True,
        )
    assert excinfo.value.check == "fluid.rate_conservation"
    # The same overshoot is tolerated on a clamped (overflow) tick.
    check.fluid_conservation(
        1.0,
        total_rate=102.0,
        capacity=100.0,
        queue=100.0,
        buffer_bytes=100.0,
        slack=1.0,
        strict=False,
    )


def test_fluid_conservation_negative_rate_and_queue():
    check = Checker()
    with pytest.raises(InvariantViolation) as excinfo:
        check.fluid_conservation(
            1.0,
            total_rate=-1.0,
            capacity=100.0,
            queue=0.0,
            buffer_bytes=100.0,
            slack=1.0,
            strict=False,
        )
    assert excinfo.value.check == "fluid.rate_conservation"
    with pytest.raises(InvariantViolation) as excinfo:
        check.fluid_conservation(
            1.0,
            total_rate=50.0,
            capacity=100.0,
            queue=101.0,
            buffer_bytes=100.0,
            slack=1.0,
            strict=True,
        )
    assert excinfo.value.check == "fluid.queue_bounds"


# -- law tables track the canonical registry -------------------------------


def test_v1_tables_match_law_module():
    assert check_laws.V1_STATES == set(state_names("bbr").values())
    for old, new in check_laws.V1_PACKET_TRANSITIONS:
        assert old in check_laws.V1_STATES
        assert new in check_laws.V1_STATES
    assert set(check_laws.V1_PACKET_GAINS) == check_laws.V1_STATES


def test_v2_tables_match_law_module():
    assert check_laws.V2_STATES == set(state_names("bbr2").values())
    for old, new in check_laws.V2_PACKET_TRANSITIONS:
        assert old in check_laws.V2_STATES
        assert new in check_laws.V2_STATES
    assert set(check_laws.V2_PACKET_GAINS) == check_laws.V2_STATES


def test_fluid_states_are_a_v1_subset():
    assert check_laws.FLUID_BBR_STATES < check_laws.V1_STATES


def test_tables_resolve_by_law_module_not_name():
    # Both BBR generations resolve through their registered law module.
    assert check_laws.states_for("bbr", "packet") == check_laws.V1_STATES
    assert check_laws.states_for("BBR2", "packet") == check_laws.V2_STATES
    assert (
        check_laws.states_for("bbr2", "fluid")
        == check_laws.FLUID_BBR_STATES
    )
    assert check_laws.states_for("cubic", "packet") is None
    assert check_laws.transitions_for("reno", "fluid") is None
    assert check_laws.packet_invariants("vegas") is None
    assert check_laws.fluid_invariants("copa") is None


def test_registry_state_names_are_strings_only():
    names = state_names("bbr")
    assert names == {
        "STARTUP": "STARTUP",
        "DRAIN": "DRAIN",
        "PROBE_BW": "PROBE_BW",
        "PROBE_RTT": "PROBE_RTT",
    }
    assert all(isinstance(v, str) for v in state_names("bbr2").values())
    assert state_names("cubic") == {}  # No state machine.


# -- violation structure ----------------------------------------------------


def test_violation_pickle_round_trip():
    original = InvariantViolation(
        "offered != accounted",
        check="link.conservation",
        time=1.5,
        flow_id=3,
        cc="cubic",
        fingerprint="abc123",
        context={"backend": "packet"},
        recent=[(1.0, "cc.state", 3, {"from": "A", "to": "B"})],
    )
    clone = pickle.loads(pickle.dumps(original))
    assert isinstance(clone, InvariantViolation)
    assert clone.message == original.message
    assert clone.check == "link.conservation"
    assert clone.time == 1.5
    assert clone.flow_id == 3
    assert clone.cc == "cubic"
    assert clone.fingerprint == "abc123"
    assert clone.context == {"backend": "packet"}
    assert clone.recent == original.recent


def test_violation_str_mentions_context():
    exc = InvariantViolation(
        "boom",
        check="cc.transition",
        time=2.0,
        flow_id=1,
        cc="bbr",
        fingerprint="deadbeefcafe1234",
        recent=[(1.9, "cc.state", 1, {"from": "STARTUP", "to": "DRAIN"})],
    )
    text = str(exc)
    assert "[cc.transition] boom" in text
    assert "t=2.000000s" in text
    assert "flow=1" in text
    assert "cc=bbr" in text
    assert "fingerprint=deadbeefcafe" in text
    assert "STARTUP" in text


def test_fail_filters_recent_by_flow():
    check = Checker()
    check.note(0.1, "cc.state", 0, to="A")
    check.note(0.2, "cc.state", 1, to="B")
    check.note(0.3, "link.drop", None)
    with pytest.raises(InvariantViolation) as excinfo:
        check.fail("cc.law", "boom", time=0.4, flow_id=1, cc="bbr")
    recent = excinfo.value.recent
    assert (0.2, "cc.state", 1, {"to": "B"}) in recent
    assert (0.3, "link.drop", None, {}) in recent  # Flow-less kept.
    assert all(event[2] in (None, 1) for event in recent)


# -- seeded defects trip the sanitizer end-to-end --------------------------


class LeakyLink(Link):
    """A broken bottleneck that under-counts one byte per drop."""

    def _record_drop(self, packet, now, aqm=False):
        super()._record_drop(packet, now, aqm)
        self.stats.dropped_bytes -= 1  # The seeded accounting leak.


def test_leaky_link_trips_conservation(monkeypatch):
    monkeypatch.setattr("repro.sim.network.Link", LeakyLink)
    link = small_link(bdp=0.5)  # Shallow buffer: CUBIC must drop.
    with pytest.raises(InvariantViolation) as excinfo:
        run_dumbbell(
            link,
            [FlowSpec(cc="cubic"), FlowSpec(cc="cubic")],
            duration=10.0,
            check=Checker(),
        )
    exc = excinfo.value
    assert exc.check == "link.conservation"
    assert exc.time is not None and exc.time >= 0


class BrokenBBR(BBRv1):
    """A BBR adapter seeded with an illegal phase transition."""

    name = "bbr"  # Held to the BBRv1 law tables by the sanitizer.

    def on_ack(self, sample):
        super().on_ack(sample)
        if not getattr(self, "_sabotaged", False):
            self._sabotaged = True
            # PROBE_BW -> DRAIN never happens in BBRv1.
            self.emit_state(
                sample.now, bbr_laws.PROBE_BW, bbr_laws.DRAIN
            )


def test_broken_bbr_trips_transition_check():
    register("bbrbroken")(BrokenBBR)
    try:
        with pytest.raises(InvariantViolation) as excinfo:
            run_dumbbell(
                small_link(),
                [FlowSpec(cc="bbrbroken")],
                duration=5.0,
                check=Checker(),
            )
    finally:
        _REGISTRY.pop("bbrbroken", None)
    exc = excinfo.value
    assert exc.check == "cc.transition"
    assert exc.cc == "bbr"
    assert exc.flow_id == 0
    assert "PROBE_BW -> DRAIN" in exc.message


# -- clean runs under the sanitizer ----------------------------------------


def test_packet_run_is_clean_and_identical_under_checks():
    link = small_link()
    mix = [("cubic", 1), ("bbr", 1)]
    with use(None):
        plain = run_mix(link, mix, duration=8.0, backend="packet")
    check = Checker()
    with use(check):
        checked = run_mix(link, mix, duration=8.0, backend="packet")
    assert check.checks_run > 0
    assert checked == plain


def test_fluid_run_is_clean_and_identical_under_checks():
    link = small_link(mbps=50)
    mix = [("cubic", 2), ("bbr", 2), ("bbr2", 1)]
    with use(None):
        plain = run_mix(link, mix, duration=20.0, backend="fluid")
    check = Checker()
    with use(check):
        checked = run_mix(link, mix, duration=20.0, backend="fluid")
    assert check.checks_run > 0
    assert checked == plain


def test_run_fluid_explicit_checker_is_clean():
    check = Checker()
    result = run_fluid(
        small_link(mbps=50),
        [FluidSpec(cc=cc) for cc in ("bbr", "bbr2", "cubic", "reno")],
        duration=15.0,
        check=check,
    )
    assert check.checks_run > 0
    assert len(result.flows) == 4


def test_run_mix_sets_scenario_context():
    check = Checker()
    with use(check):
        run_mix(
            small_link(),
            [("cubic", 1)],
            duration=4.0,
            backend="packet",
            seed=7,
        )
    assert check.context["backend"] == "packet"
    assert check.context["seed"] == 7
    assert check.context["duration"] == 4.0


def test_engine_run_attaches_fingerprint():
    from repro.exec import Engine, ScenarioPoint

    point = ScenarioPoint(
        link=small_link(),
        mix=(("cubic", 1),),
        duration=4.0,
        backend="fluid",
    )
    check = Checker()
    with use(check):
        Engine(jobs=1).run_points([point])
    assert check.context["fingerprint"] == point.fingerprint()
