"""Scalar-vs-vectorized fluid substrate parity.

The vectorized substrate (:mod:`repro.fluidsim.vec`) promises *bitwise*
agreement with the scalar fluid simulator: same tick sequence, same
loss-lottery draws, same IEEE-754 rounding (both substrates route every
power function through :mod:`repro.fluidsim.mathops`).  These tests pin
that contract across every CCA x loss mode x RTT regime, plus the
batching property the execution engine relies on: running N points in
one ndarray block equals running them one at a time.

Everything here compares :class:`repro.sim.network.SimulationResult`
dataclasses with ``==`` — exact floats, no tolerances.
"""

import pytest

from repro.cc.laws import ALGORITHMS, canonical_names, registry
from repro.check import Checker, InvariantViolation
from repro.fluidsim import (
    LOSS_MODES,
    BatchPoint,
    FluidSpec,
    run_fluid,
    run_fluid_vec,
    run_fluid_vec_batch,
)
from repro.fluidsim.mathops import np
from repro.util.config import LinkConfig

#: A shallow buffer so every loss-based CCA sees overflow events.
LINK = LinkConfig.from_mbps_ms(20, 20, 1.5)

DURATION = 12.0
WARMUP = 2.0
JITTER = 0.4


def _scenario(cc, rtts=None):
    """Four same-CCA flows (mixed RTTs when ``rtts`` is given)."""
    rtts = rtts or [None] * 4
    return [FluidSpec(cc=cc, rtt=rtt) for rtt in rtts]


def _run_both(flows, loss_mode, seed=11, **kwargs):
    kwargs.setdefault("duration", DURATION)
    kwargs.setdefault("warmup", WARMUP)
    kwargs.setdefault("start_jitter", JITTER)
    scalar = run_fluid(LINK, flows, loss_mode=loss_mode, seed=seed, **kwargs)
    vec = run_fluid_vec(
        LINK, flows, loss_mode=loss_mode, seed=seed, **kwargs
    )
    return scalar, vec


@pytest.mark.parametrize("loss_mode", LOSS_MODES)
@pytest.mark.parametrize("cc", canonical_names())
def test_every_cca_matches_scalar_bitwise(cc, loss_mode):
    scalar, vec = _run_both(_scenario(cc), loss_mode)
    assert vec == scalar


@pytest.mark.parametrize("loss_mode", LOSS_MODES)
def test_mixed_rtt_mixed_cca_matches_scalar_bitwise(loss_mode):
    """Unequal RTTs force the vectorized bisection queue solve."""
    flows = [
        FluidSpec(cc="cubic", rtt=0.02),
        FluidSpec(cc="bbr", rtt=0.04),
        FluidSpec(cc="reno", rtt=0.08),
        FluidSpec(cc="vegas", rtt=0.02),
        FluidSpec(cc="copa", rtt=0.04),
        FluidSpec(cc="vivace", rtt=0.08),
        FluidSpec(cc="bbr2", rtt=0.02),
    ]
    scalar, vec = _run_both(flows, loss_mode, seed=5)
    assert vec == scalar


def test_flow_kwargs_and_lifetimes_match_scalar():
    """Spec kwargs, staggered starts, and byte-limited flows."""
    flows = [
        FluidSpec(cc="cubic", cc_kwargs={"fast_convergence": False}),
        FluidSpec(cc="copa", cc_kwargs={"delta": 0.25}),
        FluidSpec(cc="bbr", cc_kwargs={"gain_cycling": False}),
        FluidSpec(cc="vivace", start_time=2.0),
        FluidSpec(cc="reno", stop_time=8.0),
        FluidSpec(cc="vegas", size_bytes=400_000),
    ]
    scalar, vec = _run_both(flows, "proportional", seed=3)
    assert vec == scalar


def test_batched_points_equal_point_at_a_time():
    """The engine-facing property: one ndarray block == N solo runs."""
    points = []
    for i, cc in enumerate(canonical_names()):
        for j, mode in enumerate(LOSS_MODES):
            points.append(
                BatchPoint(
                    link=LinkConfig.from_mbps_ms(20, 20, 1.0 + j),
                    flows=_scenario(
                        cc, rtts=[0.02, 0.04, 0.02, 0.08][: 2 + j]
                    ),
                    duration=8.0 + i,
                    warmup=1.0,
                    loss_mode=mode,
                    seed=100 + 7 * i + j,
                    start_jitter=0.3,
                )
            )
    batched = run_fluid_vec_batch(points)
    solo = [run_fluid_vec_batch([point])[0] for point in points]
    assert batched == solo


def test_batched_points_equal_scalar():
    """And the same heterogeneous batch matches the scalar simulator."""
    points = [
        BatchPoint(
            link=LinkConfig.from_mbps_ms(20, 20, 1.0 + j),
            flows=_scenario(cc),
            duration=8.0,
            warmup=1.0,
            loss_mode=mode,
            seed=j,
            start_jitter=0.3,
        )
        for j, (cc, mode) in enumerate(
            [("cubic", "sync"), ("bbr", "desync"), ("vivace", "proportional")]
        )
    ]
    batched = run_fluid_vec_batch(points)
    for point, vec_result in zip(points, batched):
        scalar = run_fluid(
            point.link,
            list(point.flows),
            duration=point.duration,
            warmup=point.warmup,
            loss_mode=point.loss_mode,
            seed=point.seed,
            start_jitter=point.start_jitter,
        )
        assert vec_result == scalar


def test_run_mix_backend_fluid_vec_equals_fluid():
    from repro.experiments.runner import run_mix

    kwargs = dict(duration=15.0, trials=3, seed=9, loss_mode="desync")
    mix = [("cubic", 2), ("bbr", 2)]
    assert run_mix(LINK, mix, backend="fluid-vec", **kwargs) == run_mix(
        LINK, mix, backend="fluid", **kwargs
    )


def test_run_mix_batch_equals_per_request_calls():
    from repro.check import use as use_check
    from repro.exec import ScenarioPoint
    from repro.experiments.runner import (
        run_mix,
        run_mix_batch,
        runs_vectorized,
    )

    requests = [
        dict(
            link=LINK,
            mix=[("cubic", 20), ("bbr", 10)],
            backend="fluid-vec",
            duration=10.0,
            trials=2,
            seed=4,
        ),
        dict(
            link=LinkConfig.from_mbps_ms(10, 40, 2),
            mix=[("reno", 2, 0.02), ("reno", 1, 0.06)],
            backend="fluid-vec",
            duration=12.0,
            seed=8,
            loss_mode="sync",
        ),
        dict(
            link=LinkConfig.from_mbps_ms(5, 20, 2),
            mix=[("cubic", 1), ("bbr", 1)],
            backend="packet",
            duration=4.0,
        ),
        dict(
            link=LINK,
            mix=[("vegas", 2)],
            backend="fluid",
            duration=10.0,
            seed=2,
        ),
    ]
    points = [
        ScenarioPoint(**{**r, "mix": tuple(r["mix"])}) for r in requests
    ]
    # Wide enough to pool (the first point alone is 60 rows), while the
    # narrow ones on their own run scalar: same bits either way.  No
    # checker, so the rows decide also under REPRO_CHECK=1.
    with use_check(None):
        assert runs_vectorized(points)
        assert not runs_vectorized(points[1:])
        solo = [run_mix(**r) for r in requests]
        assert run_mix_batch(points) == solo
        assert run_mix_batch(points[1:]) == solo[1:]


# -- registry ----------------------------------------------------------------


def test_every_algorithm_has_a_vec_kernel():
    for name, spec in ALGORITHMS.items():
        assert spec.vec is not None
        cls = registry.vec_class(name)
        assert cls.__name__.startswith("Vec")
        assert "fluid-vec" in spec.substrates


def test_vec_class_unknown_name_raises():
    with pytest.raises(KeyError, match="unknown congestion control"):
        registry.vec_class("quic-magic")


# -- validation --------------------------------------------------------------


def test_batch_point_validation():
    flows = _scenario("cubic")
    with pytest.raises(ValueError, match="at least one flow"):
        BatchPoint(link=LINK, flows=[], duration=5.0)
    with pytest.raises(ValueError, match="loss_mode"):
        BatchPoint(link=LINK, flows=flows, duration=5.0, loss_mode="nope")
    with pytest.raises(ValueError, match="duration"):
        BatchPoint(link=LINK, flows=flows, duration=0.0)
    with pytest.raises(ValueError, match="warmup"):
        BatchPoint(link=LINK, flows=flows, duration=5.0, warmup=5.0)


def test_unknown_kernel_kwargs_raise():
    flows = [FluidSpec(cc="cubic", cc_kwargs={"beta": 0.5})]
    with pytest.raises(TypeError, match="beta"):
        run_fluid_vec(LINK, flows, duration=2.0)


def test_copa_delta_must_be_positive():
    flows = [FluidSpec(cc="copa", cc_kwargs={"delta": 0.0})]
    with pytest.raises(ValueError, match="delta"):
        run_fluid_vec(LINK, flows, duration=2.0)


# -- invariant checker -------------------------------------------------------


def test_checker_runs_on_vec_array_state():
    check = Checker()
    run_fluid_vec(
        LINK, _scenario("cubic"), duration=4.0, seed=1, check=check
    )
    assert check.checks_run > 0


def test_checker_flags_corrupt_vec_state():
    check = Checker()
    active = np.array([True, True])
    with pytest.raises(InvariantViolation, match="finite and positive"):
        check.fluid_vec_flows(
            np.array([1.0, 1.0]),
            np.array([1500.0, float("nan")]),
            active,
            np.array([0, 1]),
            ("cubic", "bbr"),
        )
    with pytest.raises(InvariantViolation):
        check.fluid_vec_conservation(
            np.array([1.0]),
            total_rate=np.array([1e9]),
            capacity=np.array([1e6]),
            queue=np.array([0.0]),
            buffer_bytes=np.array([1e5]),
            slack=np.array([1.0]),
            strict=np.array([True]),
            active=np.array([True]),
        )
