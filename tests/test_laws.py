"""The control-law layer: canonical registry + kernel unit tests.

The laws package is the single source of truth for every congestion
control constant and state-machine rule; these tests pin (a) that both
substrates resolve through the one canonical table, (b) that adapter
re-exports are identities (not copies) of the law constants, and
(c) the kernels' own behavior, independent of any substrate.
"""

import math

import pytest

from repro.cc import available_algorithms, make_controller
from repro.cc.laws import (
    ALGORITHMS,
    canonical_names,
    fluid_class,
    get_spec,
    kernel_parameters,
    packet_class,
)
from repro.cc.laws import bbr as bbr_laws
from repro.cc.laws import bbr2 as bbr2_laws
from repro.cc.laws import copa as copa_laws
from repro.cc.laws import cubic as cubic_laws
from repro.cc.laws import reno as reno_laws
from repro.cc.laws import vegas as vegas_laws
from repro.cc.laws import vivace as vivace_laws
from repro.cc.laws.base import CongestionEventGate, smooth_rtt
from repro.fluidsim.flows import available_fluid_algorithms, make_fluid_flow


# -- registry unification -----------------------------------------------------


def test_every_canonical_name_resolves_on_declared_substrates():
    for name in canonical_names():
        spec = ALGORITHMS[name]
        assert spec.substrates, f"{name} declares no substrate at all"
        if spec.packet is not None:
            cls = packet_class(name)
            assert cls.name == name
        if spec.fluid is not None:
            cls = fluid_class(name)
            assert cls.name == name


def test_packet_registry_matches_canonical_table():
    packet_names = {
        n for n in canonical_names() if ALGORITHMS[n].packet is not None
    }
    assert set(available_algorithms()) == packet_names


def test_fluid_registry_matches_canonical_table():
    fluid_names = {
        n for n in canonical_names() if ALGORITHMS[n].fluid is not None
    }
    assert set(available_fluid_algorithms()) == fluid_names


def test_both_substrates_instantiate_every_dual_algorithm():
    for name in canonical_names():
        spec = ALGORITHMS[name]
        if spec.packet is not None:
            controller = make_controller(name)
            assert controller.loss_based == spec.loss_based
        if spec.fluid is not None:
            flow = make_fluid_flow(name, flow_id=0, rtt=0.04)
            assert flow.loss_based == spec.loss_based


def test_get_spec_is_case_insensitive():
    assert get_spec("BBR") is ALGORITHMS["bbr"]


def test_get_spec_unknown_name_lists_alternatives():
    with pytest.raises(KeyError, match="westwood"):
        get_spec("westwood")


def test_kernel_parameters_nonempty_and_uppercase():
    for name in canonical_names():
        params = kernel_parameters(name)
        assert params, f"{name} exposes no law parameters"
        assert all(key.isupper() for key in params)


# -- single-sourcing: adapter constants ARE the law constants -----------------


def test_cubic_constants_single_sourced():
    import repro.cc.cubic as packet_cubic

    assert packet_cubic.C_CUBIC is cubic_laws.C_CUBIC
    assert packet_cubic.BETA_CUBIC is cubic_laws.BETA_CUBIC


def test_bbr_constants_single_sourced():
    import repro.cc.bbr as packet_bbr

    assert packet_bbr.GAIN_CYCLE is bbr_laws.GAIN_CYCLE
    assert packet_bbr.HIGH_GAIN is bbr_laws.HIGH_GAIN
    assert packet_bbr.CWND_GAIN is bbr_laws.CWND_GAIN


def test_bbr2_constants_single_sourced():
    import repro.cc.bbr2 as packet_bbr2

    assert packet_bbr2.LOSS_THRESH is bbr2_laws.LOSS_THRESH
    assert packet_bbr2.BETA is bbr2_laws.BETA
    assert packet_bbr2.HEADROOM is bbr2_laws.HEADROOM


def test_fluid_flows_module_defines_no_algorithm_constants():
    """The per-tick adapters hold no constants of their own."""
    import repro.fluidsim.flows as flows

    uppercase = {
        key
        for key, value in vars(flows).items()
        if key.isupper()
        and isinstance(value, (int, float, tuple, dict))
        and not isinstance(value, bool)
    }
    # Only structural imports from laws.base are allowed at module level.
    assert uppercase <= {"INITIAL_CWND_SEGMENTS", "MIN_CWND_SEGMENTS"}
    for cls_name in (
        "FluidBBR",
        "FluidBBR2",
        "FluidCubic",
        "FluidVegas",
        "FluidVivace",
    ):
        cls = getattr(flows, cls_name)
        own_constants = {
            key
            for key, value in vars(cls).items()
            if key.isupper() and isinstance(value, (int, float, tuple))
        }
        assert not own_constants, f"{cls_name} redefines {own_constants}"


# -- shared kernels -----------------------------------------------------------


def test_smooth_rtt_seed_and_ewma():
    assert smooth_rtt(None, 0.1) == 0.1
    assert smooth_rtt(0.1, 0.2) == pytest.approx(0.875 * 0.1 + 0.125 * 0.2)


def test_congestion_event_gate_admits_once_per_interval():
    gate = CongestionEventGate()
    assert gate.admit(1.0, 0.05)  # First event always admitted.
    assert not gate.admit(1.04, 0.05)  # Within one RTT of the last.
    assert gate.admit(1.06, 0.05)  # A full interval later.


def test_congestion_event_gate_admits_when_interval_unknown():
    gate = CongestionEventGate()
    assert gate.admit(1.0, None)
    assert gate.admit(1.0, None)  # No srtt yet: every loss counts.


def test_cubic_k_matches_rfc_formula():
    w_max = 100.0
    k = cubic_laws.k_from_w_max(w_max)
    assert k == pytest.approx((w_max * 0.3 / 0.4) ** (1.0 / 3.0))
    # The cubic curve returns to w_max exactly at t = K.
    assert cubic_laws.window(k, k, w_max) == pytest.approx(w_max)


def test_cubic_fast_convergence_reduces_w_max_further():
    # A loss below the last W_max remembers less than the window had; a
    # first loss, or one above the last W_max, remembers the window.
    fast = cubic_laws.reduce_w_max(100.0, 120.0)
    assert fast == pytest.approx(100.0 * (2.0 - 0.7) / 2.0)
    assert cubic_laws.reduce_w_max(100.0, 80.0) == 100.0
    assert cubic_laws.reduce_w_max(100.0, None) == 100.0


def test_reno_laws():
    assert reno_laws.md_window(100.0) == 50.0
    # One full window of ACKs grows cwnd by ~1 MSS.
    cwnd = 10 * 1500.0
    total = sum(
        reno_laws.ai_increment(1500, 1500, cwnd) for _ in range(10)
    )
    assert total == pytest.approx(1500.0)


def test_bbr_gain_cycle_shape():
    assert len(bbr_laws.GAIN_CYCLE) == 8
    assert bbr_laws.GAIN_CYCLE[0] == 1.25
    assert bbr_laws.GAIN_CYCLE[1] == 0.75
    assert all(g == 1.0 for g in bbr_laws.GAIN_CYCLE[2:])
    assert math.prod(bbr_laws.GAIN_CYCLE) == pytest.approx(1.25 * 0.75)


def test_bbr_full_pipe_detector_three_plateau_rounds():
    detector = bbr_laws.FullPipeDetector()
    assert not detector.update(100.0)  # 25%+ growth: keep going.
    assert not detector.update(125.0)
    assert not detector.update(126.0)  # Plateau round 1.
    assert not detector.update(126.0)  # Plateau round 2.
    assert detector.update(126.0)  # Plateau round 3: pipe full.
    assert detector.full
    assert detector.update(1e9)  # Latched.


def test_bbr_gain_cycler_rotates_once_per_rtprop():
    cycler = bbr_laws.GainCycler()
    cycler.reset(0.0)
    assert cycler.gain == 1.0  # Neutral phase first.
    gains = [cycler.advance(0.05 * (i + 1), 0.04) for i in range(8)]
    # One full rotation through the 8-phase schedule.
    assert gains == [1.0, 1.0, 1.0, 1.0, 1.0, 1.25, 0.75, 1.0]


def test_bbr_rtprop_tracker_expiry_accepts_worse_sample():
    tracker = bbr_laws.RtPropTracker(window=10.0)
    tracker.update(0.0, 0.040)
    tracker.update(1.0, 0.050)  # Worse and fresh: rejected.
    assert tracker.rtprop == 0.040
    tracker.update(11.0, 0.050)  # Worse but the filter expired.
    assert tracker.rtprop == 0.050


def test_bbr2_loss_rate_and_cut():
    assert bbr2_laws.loss_rate(2.0, 98.0) == pytest.approx(0.02)
    assert bbr2_laws.loss_rate(0.0, 0.0) == 0.0
    cut = bbr2_laws.cut_inflight_hi(1e6, 5e5, 3000.0)
    assert cut == pytest.approx(5e5 * 0.7)
    assert bbr2_laws.cut_inflight_hi(1e6, 100.0, 3000.0) == 3000.0


def test_vegas_queued_packets():
    # cwnd 30 MSS, RTT inflated 2x over base: half the window is queued.
    diff = vegas_laws.queued_packets(30 * 1500.0, 0.08, 0.04, 1500.0)
    assert diff == pytest.approx(15.0)
    assert vegas_laws.queued_packets(1e5, 0.08, float("inf"), 1500.0) == 0.0


def test_vegas_window_adjustment_band():
    assert vegas_laws.window_adjustment(1.0, 1500.0) == 1500.0
    assert vegas_laws.window_adjustment(3.0, 1500.0) == 0.0
    assert vegas_laws.window_adjustment(5.0, 1500.0) == -1500.0


def test_copa_target_rate():
    assert copa_laws.target_rate(1500.0, 0.01) == pytest.approx(
        1500.0 / (0.5 * 0.01)
    )
    assert math.isinf(copa_laws.target_rate(1500.0, 0.0))
    assert copa_laws.double_velocity(1e6) == copa_laws.VELOCITY_CAP


def test_vivace_utility_penalizes_latency_and_loss():
    clean = vivace_laws.utility(1e6, 0.0, 0.0, 900.0, 11.35)
    latency = vivace_laws.utility(1e6, 0.01, 0.0, 900.0, 11.35)
    lossy = vivace_laws.utility(1e6, 0.0, 0.05, 900.0, 11.35)
    assert clean > latency
    assert clean > lossy
    assert vivace_laws.utility(0.0, 0.0, 0.0, 900.0, 11.35) == 0.0


def test_vivace_adapters_read_the_law_coefficients(monkeypatch):
    """Every Vivace adapter feeds the law module's ``LATENCY_COEFF`` and
    ``LOSS_COEFF`` to the utility — none holds a copy — so setting them
    there reaches the packet, scalar fluid and vec paths alike."""
    from repro.cc.vivace import Vivace
    from repro.fluidsim import FluidSpec, mathops, run_fluid_vec
    from repro.fluidsim.flows import FluidVivace
    from repro.util.config import LinkConfig

    assert vivace_laws.LATENCY_COEFF == 0.0  # Vivace-Loss: b = 0.
    monkeypatch.setattr(vivace_laws, "LATENCY_COEFF", 900.0)
    monkeypatch.setattr(vivace_laws, "LOSS_COEFF", 7.0)
    args = (1e6, 0.05, 0.1)
    assert Vivace().utility(*args) == vivace_laws.utility(*args, 900.0, 7.0)
    assert FluidVivace(0, rtt=0.04).utility(*args) == float(
        mathops.vivace_utility(*args, 900.0, 7.0)
    )
    seen = set()
    score = mathops.vivace_score

    def spy(*score_args):
        seen.add(score_args[-2:])
        return score(*score_args)

    monkeypatch.setattr(mathops, "vivace_score", spy)
    link = LinkConfig.from_mbps_ms(10, 20, 1)
    run_fluid_vec(link, [FluidSpec(cc="vivace")], duration=1.0)
    assert seen == {(900.0, 7.0)}


def test_vivace_gradient_step_doubles_amplifier_same_direction():
    rate, direction, amp = vivace_laws.gradient_step(
        1e6, 10.0, 5.0, 1.0, 0
    )
    assert direction == 1
    assert amp == 1.0  # Direction changed from 0: reset.
    assert rate == pytest.approx(1e6 * (1 + vivace_laws.EPSILON))
    rate2, direction2, amp2 = vivace_laws.gradient_step(
        rate, 10.0, 5.0, amp, direction
    )
    assert direction2 == 1
    assert amp2 == 2.0  # Same direction again: amplifier doubles.
    assert rate2 > rate


def test_vivace_gradient_step_floors_at_min_rate():
    rate, direction, _amp = vivace_laws.gradient_step(
        vivace_laws.MIN_RATE, 0.0, 10.0, 8.0, -1
    )
    assert direction == -1
    assert rate == vivace_laws.MIN_RATE
