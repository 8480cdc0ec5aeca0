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

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.fluidsim.vec import VecFluidSim
from repro.fluidsim.vec_laws import VecWindowedFilter
from repro.util.config import LinkConfig
from repro.util.filters import WindowedMax, WindowedMin

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


def _scalar(point):
    """The scalar simulator's result for one :class:`BatchPoint`."""
    return run_fluid(
        point.link,
        list(point.flows),
        duration=point.duration,
        warmup=point.warmup,
        loss_mode=point.loss_mode,
        seed=point.seed,
        start_jitter=point.start_jitter,
    )


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
    assert run_fluid_vec_batch(points) == [_scalar(p) for p in points]


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


# -- batch shapes ------------------------------------------------------------
# Segment sums used to take one of three code paths by batch shape
# (< 8 points, >= 8 same-width points, >= 32 ragged points); every
# shape now takes the one accumulate, and these sizes straddle the old
# thresholds.


def _shape_point(i):
    """Point ``i`` of the shape grid: 2-4 flows, CCA and mode by ``i``."""
    ccs = ["cubic", "bbr", "reno", "bbr2", "copa", "vegas", "vivace"]
    return BatchPoint(
        link=LinkConfig.from_mbps_ms(20, 20, 0.5 + (i % 5)),
        flows=[
            FluidSpec(cc=ccs[(i + j) % len(ccs)]) for j in range(2 + i % 3)
        ],
        duration=3.0,
        warmup=0.5,
        loss_mode=LOSS_MODES[i % len(LOSS_MODES)],
        seed=40 + i,
        start_jitter=0.1,
    )


@pytest.fixture(scope="module")
def shape_reference():
    """33 points, each run on its own: scalar, and as a vec batch of 1."""
    points = [_shape_point(i) for i in range(33)]
    scalar = [_scalar(p) for p in points]
    assert [run_fluid_vec_batch([p])[0] for p in points] == scalar
    return points, scalar


@pytest.mark.parametrize("n_points", [1, 2, 3, 7, 8, 9, 33])
def test_batch_sizes_equal_point_at_a_time(shape_reference, n_points):
    points, scalar = shape_reference
    assert run_fluid_vec_batch(points[:n_points]) == scalar[:n_points]


@pytest.mark.parametrize("n_points", [7, 8, 9, 33])
def test_uniform_width_batches_equal_point_at_a_time(
    shape_reference, n_points
):
    """Same-width points: the block is a plain reshape, no padding."""
    points, scalar = shape_reference
    same = [i for i in range(33) if i % 3 == 1]  # all 3-flow points
    picked = [same[k % len(same)] for k in range(n_points)]
    assert run_fluid_vec_batch([points[i] for i in picked]) == [
        scalar[i] for i in picked
    ]


def test_ragged_flow_counts_equal_scalar():
    """3, 20 and 7 flows in one batch: padded slots add exact zeros."""
    points = [
        BatchPoint(
            link=LinkConfig.from_mbps_ms(50, 20, 1.0 + i),
            flows=[
                FluidSpec(cc=("cubic", "bbr")[j % 2]) for j in range(count)
            ],
            duration=4.0,
            warmup=0.5,
            seed=i,
            start_jitter=0.1,
        )
        for i, count in enumerate([3, 20, 7])
    ]
    assert run_fluid_vec_batch(points) == [_scalar(p) for p in points]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
            min_size=1,
            max_size=9,
        ),
        min_size=1,
        max_size=6,
    )
)
def test_segment_sum_is_python_sum_bitwise(columns):
    """``_segment_sum`` == the scalar loop's per-point ``sum()``, bit
    for bit, on uniform and ragged (zero-padded) batches alike."""
    sim = VecFluidSim(
        [
            BatchPoint(
                link=LINK,
                flows=[FluidSpec(cc="reno")] * len(column),
                duration=1.0,
            )
            for column in columns
        ]
    )
    flat = np.array([x for column in columns for x in column])
    expected = [sum(column) for column in columns]
    assert sim._segment_sum(flat).tolist() == expected
    # The padding slots are never written: a second call sees zeros.
    assert sim._segment_sum(flat[::-1].copy()).tolist() == [
        sum(segment)
        for segment in np.split(
            flat[::-1], np.cumsum([len(c) for c in columns])[:-1]
        )
    ]


# -- filter rings ------------------------------------------------------------


def _bbr_filter(sim):
    [kernel] = [k for k in sim.kernels if k.name == "bbr"]
    return kernel.bw_filter


def _bbr_point(buffer_bdp, duration=6.0, seed=0, n=2, **link_kwargs):
    return BatchPoint(
        link=LinkConfig.from_mbps_ms(20, 20, buffer_bdp, **link_kwargs),
        flows=[FluidSpec(cc="cubic")] + [FluidSpec(cc="bbr")] * n,
        duration=duration,
        warmup=1.0,
        seed=seed,
        start_jitter=0.2,
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_vec_filter_matches_scalar_deques_while_rows_grow(data):
    """Rows fed independent sample streams, from rings of 2: every
    estimate equals the scalar filter's, and a row that never filled
    keeps its capacity however often its neighbours double."""
    n = data.draw(st.integers(1, 5))
    is_max = data.draw(st.booleans())
    window = data.draw(st.sampled_from([0.05, 0.4, 3.0]))
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    vec = VecWindowedFilter(np.full(n, 2), is_max=is_max)
    scalar_cls = WindowedMax if is_max else WindowedMin
    scalar = [scalar_cls(window) for _ in range(n)]
    quiet = rng.randrange(n)  # one row only ever holds one sample
    deepest = [0] * n
    now = 0.0
    for _ in range(120):
        now += 0.01
        mask = np.array([rng.random() < 0.8 for _ in range(n)])
        # Mostly monotone ramps (deep deques), sometimes a reset.
        value = np.array(
            [rng.choice([now, -now, rng.random()]) for _ in range(n)]
        )
        value[quiet] = now if is_max else -now
        best = vec.update(mask, np.full(n, now), value, np.full(n, window))
        for row in range(n):
            if mask[row]:
                assert best[row] == scalar[row].update(now, value[row])
                deepest[row] = max(deepest[row], len(scalar[row]))
        got = vec.get()
        for row in range(n):
            assert got[row] == (scalar[row].get() or 0.0)
        assert (vec.tail - vec.head).tolist() == [len(f) for f in scalar]
    assert vec.cap[quiet] == 2
    for row in range(n):
        assert deepest[row] <= vec.cap[row] <= max(2, 2 * deepest[row])
    assert vec.times.nbytes == vec.values.nbytes == 8 * int(vec.cap.sum())


def test_ring_bytes_are_the_sum_of_per_row_capacities():
    """A 0.5-BDP and a 32-BDP BBR point in one batch: each row's ring is
    sized from its own window bound, so the shallow point's rows do not
    pay for the deep one's — and the seed has no say in it."""
    sizes = set()
    for seed in (0, 1, 3):
        sim = VecFluidSim(
            [_bbr_point(0.5, seed=seed), _bbr_point(32, seed=seed)]
        )
        ring = _bbr_filter(sim)
        # 10 RTTs of (20 ms + buffer drain) at 5 ms ticks, + 3, as 2^k.
        assert ring.cap.tolist() == [64, 64, 2048, 2048]
        assert ring.values.nbytes == ring.times.nbytes == 8 * (
            2 * 64 + 2 * 2048
        )
        sim.run()
        assert ring.reallocations == 0
        sizes.add((ring.values.nbytes, tuple(ring.cap.tolist())))
    assert len(sizes) == 1


def test_deep_buffer_bbr_run_never_reallocates_its_ring():
    point = _bbr_point(32, duration=60.0, n=3)
    sim = VecFluidSim([point])
    result = sim.run()
    assert _bbr_filter(sim).reallocations == 0
    assert result == [_scalar(point)]


def test_capacity_drop_sizes_rings_from_the_trace_minimum():
    """Capacity / 4 at t = 2 s quadruples the queuing delay a full
    buffer means.  The ring bound uses the trace's minimum capacity, so
    the traced rows are presized deeper than their untraced twin's and
    nothing grows; the run equals the scalar one bit for bit."""
    plain = _bbr_point(8)
    traced = _bbr_point(8, capacity_trace="steps:2@0.25")
    sim = VecFluidSim([plain, traced])
    ring = _bbr_filter(sim)
    assert ring.cap.tolist() == [512, 512, 2048, 2048]
    assert sim.run() == [_scalar(plain), _scalar(traced)]
    assert ring.reallocations == 0


def test_violated_ring_bound_grows_only_the_full_rows():
    """The same batch with every ring sized as if no trace existed (a
    wrong bound): the traced rows fill up and double, their untraced
    neighbours keep their capacity, and no sample is lost."""
    plain = _bbr_point(8, duration=12.0)
    traced = _bbr_point(8, duration=12.0, capacity_trace="steps:2@0.25")
    sim = VecFluidSim([plain, traced])
    [kernel] = [k for k in sim.kernels if k.name == "bbr"]
    kernel.bw_filter = ring = VecWindowedFilter(
        np.full(4, 512), is_max=True
    )
    assert sim.run() == [_scalar(plain), _scalar(traced)]
    # Deepest deques: ~315 samples untraced, 975 and 1 264 traced —
    # one doubling for the first traced row, two for the second.
    assert ring.reallocations == 3
    assert ring.cap.tolist() == [512, 512, 1024, 2048]
    assert ring.values.nbytes == 8 * int(ring.cap.sum())


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
