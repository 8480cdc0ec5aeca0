"""Instruments observe, never perturb, and cost nothing when off.

Telemetry (``obs``), the sanitizer (``check``), span tracing
(``tracer``) and the fluid tick's AQM hooks each guard every site on one
``is not None`` attribute test.  So a run with the instrument returns
exactly what a run without it does, and a run without it is not slower
than a run with it by more than noise.  The timings are interleaved,
the best of five a side after a warm-up, inside a 1.25× envelope: they
catch a guard that grew an unconditional cost, not a few per cent.
What each costs *on* is the benchmark's business
(``check.overhead_ratio``, ``trace.overhead_ratio``,
``sim.aqm_overhead_ratio.*``).
"""

from time import perf_counter

import pytest

from repro.check import Checker
from repro.check import use as use_check
from repro.exec import Engine, ScenarioPoint
from repro.fluidsim import FluidSpec, run_fluid
from repro.obs import Telemetry
from repro.obs import use as use_obs
from repro.obs.trace import Tracer
from repro.obs.trace import use as use_tracer
from repro.sim.network import FlowSpec, run_dumbbell
from repro.util.config import LinkConfig

ENVELOPE = 1.25
PACKET_LINK = LinkConfig.from_mbps_ms(5, 20, 4)
PACKET_FLOWS = [FlowSpec("cubic"), FlowSpec("bbr")]


@pytest.fixture(autouse=True)
def nothing_ambient():
    """Off means off, also under ``REPRO_CHECK=1``."""
    with use_check(None), use_obs(None), use_tracer(None):
        yield


def race(off, on, rounds=5):
    """Time ``off()`` and ``on()`` alternately ``rounds`` times each
    after one warm-up call; ``(off result, on result, best off s, best
    on s)`` — the results of the last round."""
    off()
    best = [float("inf"), float("inf")]
    results = [None, None]
    for _ in range(rounds):
        for side, run in enumerate((off, on)):
            start = perf_counter()
            results[side] = run()
            best[side] = min(best[side], perf_counter() - start)
    return (*results, *best)


def packet_run(**instrument):
    return run_dumbbell(PACKET_LINK, PACKET_FLOWS, 10.0, **instrument)


def test_telemetry_changes_nothing_and_is_free_when_off():
    telemetry = []

    def on():
        telemetry.append(Telemetry())
        return packet_run(obs=telemetry[-1])

    plain, observed, off_s, on_s = race(packet_run, on)
    assert telemetry[-1].counter("sim.events") == observed.events_processed
    assert observed == plain
    assert off_s < on_s * ENVELOPE


def test_checking_changes_nothing_and_is_free_when_off():
    checkers = []

    def on():
        checkers.append(Checker())
        return packet_run(check=checkers[-1])

    plain, checked, off_s, on_s = race(packet_run, on)
    assert checkers[-1].checks_run > 0
    assert checked == plain
    assert off_s < on_s * ENVELOPE


def test_tracing_changes_nothing_and_is_free_when_off():
    points = [
        ScenarioPoint(
            link=LinkConfig.from_mbps_ms(20, 20, buffer_bdp),
            mix=(("cubic", 2), ("bbr", 2)),
            duration=5.0,
        )
        for buffer_bdp in (1, 2)
    ]
    tracers = []

    def on():
        tracers.append(Tracer())
        return Engine(tracer=tracers[-1]).run_points(points)

    plain, traced, off_s, on_s = race(
        lambda: Engine().run_points(points), on
    )
    assert tracers[-1].spans
    assert traced == plain
    assert off_s < on_s * ENVELOPE


FLUID_LINK = LinkConfig.from_mbps_ms(100, 40, 5)
FLUID_FLOWS = [FluidSpec("cubic")] * 10 + [FluidSpec("bbr")] * 10


def test_droptail_pays_nothing_for_the_aqm_hooks():
    """RED does strictly more work per tick, so a drop-tail run that is
    materially slower than a RED one has grown an unconditional cost on
    its fast path."""
    red = FLUID_LINK.with_aqm("red")
    droptail, with_red, droptail_s, red_s = race(
        lambda: run_fluid(FLUID_LINK, FLUID_FLOWS, 10.0, seed=3),
        lambda: run_fluid(red, FLUID_FLOWS, 10.0, seed=3),
    )
    assert droptail != with_red  # Or the guard is vacuous.
    assert droptail_s < red_s * ENVELOPE


def test_fluid_telemetry_takes_the_same_trajectory():
    """Telemetry samples the fluid run without touching its RNG."""
    flows = FLUID_FLOWS[5:15]
    plain = run_fluid(FLUID_LINK, flows, 20.0, seed=3)
    obs = Telemetry(sample_interval=0.5)
    observed = run_fluid(FLUID_LINK, flows, 20.0, seed=3, obs=obs)
    assert observed == plain
    assert obs.counter("fluid.steps") == observed.events_processed
    assert obs.samples
