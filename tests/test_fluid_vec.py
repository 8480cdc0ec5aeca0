"""Scalar-vs-vectorized fluid substrate parity.

The vectorized substrate (:mod:`repro.fluidsim.vec`) promises *bitwise*
agreement with the scalar fluid simulator: same tick sequence, same
loss-lottery draws, same IEEE-754 rounding (both substrates route every
power function through :mod:`repro.fluidsim.mathops`).  These tests pin
that contract across every CCA x loss mode x RTT regime, plus the
batching property the execution engine relies on: running N points in
one ndarray block equals running them one at a time.

Everything here compares :class:`repro.scenario.result.SimulationResult`
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
    FluidSimulation,
    FluidSpec,
    run_fluid,
    run_fluid_vec,
    run_fluid_vec_batch,
)
from repro.fluidsim.mathops import np
from repro.fluidsim.vec import VecFluidSim
from repro.fluidsim.vec_laws import VecBBR, VecCubic, VecWindowedFilter
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


def test_flow_lifetimes_match_scalar():
    """Staggered starts beside flows sending from t = 0."""
    flows = [
        FluidSpec(cc="cubic"),
        FluidSpec(cc="copa"),
        FluidSpec(cc="bbr"),
        FluidSpec(cc="vivace", start_time=2.0),
        FluidSpec(cc="reno", start_time=8.0),
        FluidSpec(cc="vegas"),
    ]
    scalar, vec = _run_both(flows, "proportional", seed=3)
    assert vec == scalar


#: Flow starts the scalar loop decides activity for: spread out by the
#: specs, or by the start jitter alone.  Either way the sending set is
#: settled for good once the last flow has started.
LIFETIMES = {
    "staggered": [
        FluidSpec(cc=cc, start_time=0.8 * i)
        for i, cc in enumerate(("cubic", "bbr", "reno", "bbr2", "vivace"))
    ],
    "jittered": [FluidSpec(cc=cc) for cc in ("cubic", "bbr", "reno")],
}


@pytest.mark.parametrize("loss_mode", LOSS_MODES)
@pytest.mark.parametrize("lifetime", sorted(LIFETIMES))
def test_activity_settles_after_the_last_start(lifetime, loss_mode):
    """The scalar loop stops asking which flows send once the answer
    cannot change: its last look at a start time is on the first tick
    after the last start."""
    calls = []

    class Start(float):
        """A start time that records each clock it is compared with
        (``now >= start`` asks the subclass's ``__le__`` first)."""

        def __le__(self, now):
            calls.append(now)
            return float.__le__(self, now)

    flows = LIFETIMES[lifetime]
    sim = FluidSimulation(
        LINK, flows, loss_mode=loss_mode, seed=6, start_jitter=JITTER
    )
    for flow in sim.flows:
        flow.start_time = Start(flow.start_time)
    scalar = sim.run(DURATION, WARMUP)
    vec = run_fluid_vec(
        LINK,
        flows,
        duration=DURATION,
        warmup=WARMUP,
        loss_mode=loss_mode,
        seed=6,
        start_jitter=JITTER,
    )
    assert vec == scalar
    last_start = max(flow.start_time for flow in sim.flows)
    assert last_start <= calls[-1] < last_start + sim.dt


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
        mean_result,
        run_mix,
        run_mix_batch,
        runs_vectorized,
        seed_points,
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
        ScenarioPoint(**{k: v for k, v in r.items() if k != "trials"})
        for r in requests
    ]
    # Wide enough to pool (the first point's two seeds alone are 60
    # rows), while the narrow ones on their own run scalar: same bits
    # either way.  No checker, so the rows decide also under
    # REPRO_CHECK=1.
    batch = seed_points(points[:1], 2) + points[1:]
    with use_check(None):
        assert runs_vectorized(batch)
        assert not runs_vectorized(points[1:])
        solo = [run_mix(**r) for r in requests]
        pooled = run_mix_batch(batch)
        assert [mean_result(pooled[:2])] + pooled[2:] == solo
        assert run_mix_batch(points[1:]) == solo[1:]


# -- what a tick pays for ----------------------------------------------------
# Kernels skip the live-row mask once every row is live for good, and a
# congestion signal touches only the rows of the points it hits.


def _watch_ticks(monkeypatch):
    """Record, per tick: whether kernels saw every row live, whether
    last tick's rates had a sign bit, and how many points each
    congestion signal hit."""
    seen = {"all_live": set(), "signed_rate": False, "signalled": []}
    tick, select = VecCubic.tick, VecFluidSim._select

    def watch_tick(self, state):
        seen["all_live"].add(state.all_live)
        seen["signed_rate"] |= bool(np.signbit(state.throughput).any())
        tick(self, state)

    def watch_select(self, mask):
        seen["signalled"].append(int(np.count_nonzero(mask)))
        return select(self, mask)

    monkeypatch.setattr(VecCubic, "tick", watch_tick)
    monkeypatch.setattr(VecFluidSim, "_select", watch_select)
    return seen


#: One flow of every kind the signal path treats apart: loss-based
#: kernels that back off (CUBIC, Reno, BBRv2), kernels that also count
#: dropped bytes (BBRv2, Vivace) and a kernel that ignores both (BBR).
SIGNAL_MIX = ("cubic", "reno", "bbr2", "vivace", "bbr")


@pytest.mark.parametrize("loss_mode", LOSS_MODES)
def test_all_live_batch_signals_only_its_overflowing_points(
    loss_mode, monkeypatch
):
    """Flows that start at 0 and never stop, so every row is live on
    every tick, and buffers from 0.5 to 4 BDP, so on many ticks only
    some points overflow."""
    points = [
        BatchPoint(
            link=LinkConfig.from_mbps_ms(20, 20, buffer),
            flows=[FluidSpec(cc=cc) for cc in SIGNAL_MIX],
            duration=6.0,
            warmup=1.0,
            loss_mode=loss_mode,
            seed=seed,
        )
        for seed, buffer in enumerate((0.5, 4.0, 1.0))
    ]
    seen = _watch_ticks(monkeypatch)
    assert run_fluid_vec_batch(points) == [_scalar(p) for p in points]
    assert seen["all_live"] == {True}
    assert 0 < min(seen["signalled"]) < len(points)
    assert not seen["signed_rate"]


@pytest.mark.parametrize("loss_mode", LOSS_MODES)
def test_staggered_batch_masks_its_rows(loss_mode, monkeypatch):
    """Staggered starts, a late one among them, and points of two
    lengths: rows are live and not, tick by tick, so kernels apply the
    mask."""
    points = [
        BatchPoint(
            link=LinkConfig.from_mbps_ms(20, 20, 1.0),
            flows=[
                FluidSpec(cc=cc, start_time=0.5 * i)
                for i, cc in enumerate(SIGNAL_MIX)
            ]
            + [FluidSpec(cc="cubic", start_time=3.0)],
            duration=duration,
            warmup=1.0,
            loss_mode=loss_mode,
            seed=7,
            start_jitter=0.2,
        )
        for duration in (5.0, 6.0)
    ]
    seen = _watch_ticks(monkeypatch)
    assert run_fluid_vec_batch(points) == [_scalar(p) for p in points]
    assert seen["all_live"] == {False}
    assert not seen["signed_rate"]


# -- what a tick pays for, by phase ------------------------------------------
# BBR's STARTUP and ProbeRTT rows are worked on by index while any exist,
# CUBIC drops its slow-start masks once no row is in slow start, and a
# batch whose points share one dt reads one float clock.


def _watch_phases(monkeypatch):
    """Record, per kernel name, the phase counts its ticks started from
    — ``(startup_rows, probing_rows)`` for BBR / BBRv2, ``slow_rows``
    for CUBIC — as a list of the values in the order they changed; and
    the clock types kernels saw."""
    seen = {"bbr": [], "bbr2": [], "cubic": [], "clock": set()}
    bbr_tick, cubic_tick = VecBBR.tick, VecCubic.tick

    def log(name, phase, state):
        runs = seen[name]
        if not runs or runs[-1] != phase:
            runs.append(phase)
        seen["clock"].add(type(state.now))

    def watch_bbr(self, state):
        log(self.name, (self.startup_rows, self.probing_rows), state)
        bbr_tick(self, state)

    def watch_cubic(self, state):
        log("cubic", self.slow_rows, state)
        cubic_tick(self, state)

    monkeypatch.setattr(VecBBR, "tick", watch_bbr)
    monkeypatch.setattr(VecCubic, "tick", watch_cubic)
    return seen


def _phase_point(buffer_bdp, flows, seed, duration=12.0, rtt_ms=20):
    return BatchPoint(
        link=LinkConfig.from_mbps_ms(20, rtt_ms, buffer_bdp),
        flows=flows,
        duration=duration,
        warmup=1.0,
        seed=seed,
    )


def test_one_bbr_row_probes_rtt_while_the_others_cruise(monkeypatch):
    """The deep point's queue never drains, so its BBR row's RTprop
    expires at t = 10 s: it alone holds the ProbeRTT floor for 200 ms
    and leaves, while the shallow point's rows stay in PROBE_BW."""
    points = [
        _phase_point(0.5, [FluidSpec(cc="bbr")] * 2, seed=1),
        _phase_point(8, [FluidSpec(cc="cubic"), FluidSpec(cc="bbr")], 2),
    ]
    seen = _watch_phases(monkeypatch)
    assert run_fluid_vec_batch(points) == [_scalar(p) for p in points]
    runs = seen["bbr"]
    assert runs[:3] == [(3, 0), (1, 0), (0, 0)]
    alone = runs.index((0, 1))
    assert runs[alone - 1] == runs[alone + 1] == (0, 0)
    assert runs[-1] == (0, 0)
    assert seen["clock"] == {float}


def test_bbr_row_in_startup_beside_cruising_rows(monkeypatch):
    """A BBR flow that starts at 10.5 s runs STARTUP next to one that
    left it at 0.2 s.  Its RTprop stamp is the run's start and the
    queue is standing, so it enters ProbeRTT on its first tick, still
    in STARTUP, and leaves it 200 ms later to finish STARTUP; the early
    row's own ProbeRTT (at 10 s) comes first.  CUBIC's late flow is in
    slow start beside the first one's congestion avoidance."""
    flows = [
        FluidSpec(cc="cubic"),
        FluidSpec(cc="bbr"),
        FluidSpec(cc="bbr", start_time=10.5),
        FluidSpec(cc="cubic", start_time=10.5),
    ]
    points = [_phase_point(8, flows, seed=4, duration=13.0)]
    seen = _watch_phases(monkeypatch)
    assert run_fluid_vec_batch(points) == [_scalar(p) for p in points]
    assert seen["bbr"] == [
        (2, 0), (1, 0), (1, 1), (1, 0), (1, 1), (1, 0), (0, 0)
    ]
    assert seen["cubic"] == [2, 1, 0]


def test_bbr2_and_cubic_slow_start_beside_cruising_rows(monkeypatch):
    """BBRv2 inherits BBR's tick: STARTUP rows leave one by one, and
    ProbeRTT (every 5 s) is entered and left beside cruising rows.  The
    shallow point's CUBIC rows leave slow start before the deep point's:
    the masked slow-start path runs until the last one does, then the
    tick without it."""
    flows = [FluidSpec(cc="cubic"), FluidSpec(cc="bbr2")] * 2
    points = [_phase_point(b, flows, seed=3, duration=8.0) for b in (0.5, 4)]
    seen = _watch_phases(monkeypatch)
    assert run_fluid_vec_batch(points) == [_scalar(p) for p in points]
    runs = seen["bbr2"]
    assert runs[0] == (4, 0) and runs[-1] == (0, 0)
    assert any(0 < s < 4 for s, _ in runs)
    assert any(p for _, p in runs)
    runs = seen["cubic"]
    assert runs[0] == 4 and runs[-1] == 0
    assert any(0 < s < 4 for s in runs)


def test_two_tick_lengths_keep_an_array_clock(monkeypatch):
    """Points at 20 and 40 ms tick every 5 and 10 ms: kernels read the
    per-row clock (and ``dt``) arrays."""
    flows = [FluidSpec(cc="cubic"), FluidSpec(cc="bbr")]
    points = [
        _phase_point(2, flows, seed=6, duration=6.0, rtt_ms=rtt)
        for rtt in (20, 40)
    ]
    seen = _watch_phases(monkeypatch)
    assert run_fluid_vec_batch(points) == [_scalar(p) for p in points]
    assert seen["clock"] == {np.ndarray}
    assert seen["bbr"][-1] == (0, 0) and seen["cubic"][-1] == 0


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


def _assert_ring_layout(ring):
    """The ring layout: one value slot per tick of every row's ring
    (each a power of two, two blocks at least), one block of scratch a
    frozen row stores into, and one entry per block of ring."""
    slots = int(ring.cap.sum())
    assert (ring.cap % (2 * ring.block) == 0).all()
    assert (ring.cap & ring.cap - 1 == 0).all()
    assert ring.values.nbytes == 8 * (slots + ring.block)
    assert ring.blocks.nbytes == 8 * slots // ring.block
    assert ring.times is None or ring.times.nbytes == ring.values.nbytes


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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_vec_filter_matches_scalar_filters_window_for_window(data):
    """Rows fed independent sample streams: every row's estimate equals
    the scalar filter's at every tick — on a float clock and on an
    array clock of two tick lengths, under windows redrawn every tick
    (so the horizon also moves back) from shorter than one block to
    longer than the initial ring, through a row that never pushes (0.0)
    and one that stops for longer than its ring and pushes again.  Each
    row's capacity comes from its own bound, and only a row whose window
    outgrew its ring grows, by no more than the doubling that fits it."""
    n = data.draw(st.integers(2, 6))
    is_max = data.draw(st.booleans())
    uniform = data.draw(st.booleans())
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    depth = np.array([rng.choice([2, 8, 16, 40]) for _ in range(n)])
    vec = VecWindowedFilter(depth, is_max=is_max)
    block, first_cap = vec.block, vec.cap.copy()
    assert first_cap.tolist() == [
        1 << (max(d, 2 * block) - 1).bit_length() for d in depth.tolist()
    ]
    scalar_cls = WindowedMax if is_max else WindowedMin
    scalar = [scalar_cls(1.0) for _ in range(n)]
    dts = [0.01 if uniform else rng.choice([0.01, 0.025]) for _ in range(n)]
    silent, paused = 0, 1  # never pushes; stops at tick 30 for 90 ticks
    times = [[] for _ in range(n)]
    # The scalar filter's running max of now - window, and the first
    # tick at or after the row's first push that it has not expired.
    horizon = [-np.inf] * n
    start = [None] * n
    deepest = [0] * n  # the most ticks a row's window spanned at a push
    clock = 0.0
    for tick in range(8 * block + 150):
        clock += 0.01
        now = clock if uniform else np.array(
            [dts[row] * (tick + 1) for row in range(n)]
        )
        mask = np.array([rng.random() < 0.85 for _ in range(n)])
        mask[silent] = False
        mask[paused] = not 30 <= tick < 120
        # Ramps (long-lived bests), resets and noise.
        value = np.array(
            [rng.choice([tick, -tick, rng.random()]) for _ in range(n)],
            dtype=float,
        )
        window = np.array(
            [
                rng.choice([0.3 * block, 2, 8, 3 * first_cap[row]])
                * dts[row]
                for row in range(n)
            ]
        )
        vec.update(mask, now, value, window)
        best = vec.get()
        for row in range(n):
            at = now if uniform else float(now[row])
            times[row].append(at)
            scalar[row].window = float(window[row])
            if not mask[row]:
                assert best[row] == (scalar[row].get() or 0.0)
                continue
            assert best[row] == scalar[row].update(at, value[row])
            horizon[row] = max(horizon[row], at - float(window[row]))
            if start[row] is None:
                start[row] = tick
            while times[row][start[row]] < horizon[row]:
                start[row] += 1
            deepest[row] = max(deepest[row], tick - start[row] + 1)
    assert deepest[silent] == 0 and vec.cap[silent] == first_cap[silent]
    for row in range(n):
        if deepest[row] < first_cap[row]:
            assert vec.cap[row] == first_cap[row]
        else:
            assert vec.cap[row] <= 2 * deepest[row]
    _assert_ring_layout(vec)


def test_a_thawed_row_reads_the_block_it_froze_in():
    """A row pushes a ramp under an endless window for 28 ticks, then
    pauses: with 16-tick blocks and a 32-slot ring it freezes at tick
    31, inside a block then open.  It pushes again at tick 36 with a
    window reaching back to tick 20, into that block, now closed: the
    estimate is the ramp's top, as the scalar filter's is."""
    vec = VecWindowedFilter(np.array([16]), is_max=True)
    scalar = WindowedMax(1.0)
    assert (vec.block, vec.cap.tolist()) == (16, [32])
    now = 0.0
    for tick in range(37):
        now += 0.01
        push = tick < 28 or tick == 36
        window = 0.165 if tick == 36 else 1e9
        value = -1.0 if tick == 36 else float(tick)
        vec.update(
            np.array([push]), now, np.array([value]), np.array([window])
        )
        if push:
            scalar.window = window
            assert vec.get()[0] == scalar.update(now, value)
        if tick == 31:
            assert vec._frozen[0]
    assert vec.get()[0] == 27.0 and vec.head[0] == 20
    # Thawing re-lays the storage out once; 17 ticks still fit 32 slots.
    assert vec.reallocations == 1 and vec.cap.tolist() == [32]


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
        # 10 RTTs of (20 ms + buffer drain) at 5 ms ticks, + 3, as 2^k;
        # one tick length, so no per-row times; one block of scratch.
        assert ring.cap.tolist() == [64, 64, 2048, 2048]
        assert ring.times is None
        assert ring.values.nbytes == 8 * (2 * 64 + 2 * 2048 + ring.block)
        sim.run()
        assert ring.reallocations == 0
        _assert_ring_layout(ring)
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
    # Widest windows: 360 ticks untraced, 1 320 traced.  A point's rows
    # share its RTT, so both traced rings double together, twice.
    assert ring.reallocations == 2
    assert ring.cap.tolist() == [512, 512, 2048, 2048]
    _assert_ring_layout(ring)


def test_a_stopped_point_keeps_its_estimates_and_its_rings():
    """A 2 s and a 20 s point of one tick length: the short point's BBR
    rows stop pushing at 2 s.  Their estimates stay as they were, their
    rings freeze at their bound's size and never grow, and the batch
    equals the two scalar runs bit for bit."""
    short, long = _bbr_point(8, duration=2.0), _bbr_point(8, duration=20.0)
    sim = VecFluidSim([short, long])
    ring = _bbr_filter(sim)
    caps = ring.cap.tolist()
    seen = []
    update = ring.update

    def watch(*args):
        update(*args)
        seen.append(ring.get()[:2].tolist())

    ring.update = watch
    assert sim.run() == [_scalar(short), _scalar(long)]
    assert ring.cap.tolist() == caps and ring.reallocations == 0
    assert ring._frozen.tolist() == [True, True, False, False]
    stopped = int(round(2.0 / sim._dt[0]))
    assert seen[stopped:] == [seen[stopped - 1]] * (len(seen) - stopped)


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
