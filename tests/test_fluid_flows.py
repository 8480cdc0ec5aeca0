"""Fluid flow dynamics: per-CCA behaviour at tick granularity."""

import numpy as np
import pytest

from repro.fluidsim import FluidSpec, mathops, run_fluid
from repro.fluidsim.core import FluidSimulation, TickContext
from repro.fluidsim.flows import (
    FluidBBR,
    FluidBBR2,
    FluidCopa,
    FluidCubic,
    FluidReno,
    FluidVivace,
    available_fluid_algorithms,
    make_fluid_flow,
)
from repro.util.config import LinkConfig


def ctx(now, dt=0.01, throughput=1e6, rtt=0.04, qd=0.0):
    c = TickContext()
    c.now = now
    c.dt = dt
    c.throughput = throughput
    c.queue_delay = qd
    c.rtt_measured = rtt + qd
    return c


def drive(flow, seconds, dt=0.01, **kwargs):
    now = getattr(flow, "_test_now", 0.0)
    end = now + seconds
    while now < end:
        now += dt
        flow.tick(ctx(now, dt=dt, **kwargs))
    flow._test_now = now
    return now


def test_registry_matches_packet_algorithms():
    names = available_fluid_algorithms()
    for name in ("reno", "cubic", "bbr", "bbr2", "copa", "vivace"):
        assert name in names


def test_make_fluid_flow_unknown():
    with pytest.raises(KeyError):
        make_fluid_flow("westwood", flow_id=0, rtt=0.04)


def test_invalid_rtt():
    with pytest.raises(ValueError):
        FluidCubic(flow_id=0, rtt=0.0)


class TestFluidCubic:
    def test_slow_start_until_loss(self):
        f = FluidCubic(0, rtt=0.04)
        start = f.inflight
        drive(f, 0.04)
        assert f.inflight == pytest.approx(2 * start, rel=0.05)

    def test_loss_backs_off_to_seventy_percent(self):
        f = FluidCubic(0, rtt=0.04)
        drive(f, 0.2)
        before = f.inflight
        f.on_loss(0.2)
        assert f.inflight == pytest.approx(0.7 * before)

    def test_loss_guard_one_per_rtt(self):
        f = FluidCubic(0, rtt=0.04)
        drive(f, 0.2)
        before = f.inflight
        f.on_loss(0.200)
        f.on_loss(0.205)
        assert f.inflight == pytest.approx(0.7 * before)

    def test_regrows_toward_w_max(self):
        f = FluidCubic(0, rtt=0.04)
        drive(f, 0.3, throughput=5e6)
        w_max = f.inflight
        f.on_loss(0.3)
        drive(f, 10.0, throughput=5e6)
        assert f.inflight >= 0.95 * w_max

    def test_fast_convergence_lowers_w_max(self):
        f = FluidCubic(0, rtt=0.04)
        drive(f, 0.3)
        f.on_loss(0.3)
        drive(f, 0.1)
        w1 = f._w_max_pkts
        f.on_loss(0.5)
        assert f._w_max_pkts < w1


class TestCubicCubeBlocks:
    """CUBIC's cube comes from one ``np.power`` per block of predicted
    ticks; these are the contracts that keep it the per-tick cube."""

    def test_array_power_matches_scalar_power_bitwise(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(100_000) * 10.0 ** rng.uniform(
            -3, 3, 100_000
        )
        start, length = 0, 1
        while start < len(values):
            block = values[start:start + length].tolist()
            got = np.power(np.array(block), 3.0).view(np.uint64)
            want = np.array(
                [float(np.power(v, 3.0)) for v in block]
            ).view(np.uint64)
            assert (got == want).all(), (start, length)
            start += length
            length = length % 257 + 1

    def test_accumulated_clock_matches_repeated_addition(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            now = float(rng.uniform(0, 100))
            dt = float(rng.uniform(1e-4, 0.05))
            n = int(rng.integers(1, 257))
            times, _ = mathops.cubic_cubes(now, dt, 0.0, 0.0, n)
            want = [now]
            for _ in range(n - 1):
                now += dt
                want.append(now)
            assert times == want

    def test_blocks_give_the_per_tick_window(self, monkeypatch):
        def schedule():
            """(now, dt, loss) ticks: uniform runs, a skipped tick, a
            changed dt, and losses that end epochs mid-block."""
            now, dt = 0.0, 0.01
            for step in range(1500):
                if step == 400:
                    now += dt  # The flow misses one tick.
                if step == 700:
                    dt = 0.004
                now += dt
                yield now, dt, step in (20, 90, 95, 300, 701, 1000)

        def trajectory():
            flow = FluidCubic(0, rtt=0.04)
            inflights = []
            for now, dt, loss in schedule():
                flow.tick(ctx(now, dt=dt, throughput=2e6))
                if loss:
                    flow.on_loss(now)
                inflights.append(flow.inflight)
            return inflights

        blocks = []
        cubic_cubes = mathops.cubic_cubes

        def counted(*args):
            blocks.append(args[-1])
            return cubic_cubes(*args)

        monkeypatch.setattr(mathops, "cubic_cubes", counted)
        blocked = trajectory()
        assert mathops.CUBE_BLOCK_MAX in blocks  # A long epoch's blocks.

        def per_tick(now, dt, epoch_start, k, n):
            """The cube as the adapter computed it on every tick."""
            return [now], [float(np.power(now - epoch_start - k, 3.0))]

        monkeypatch.setattr(mathops, "cubic_cubes", per_tick)
        assert blocked == trajectory()
        assert len(blocks) < len(blocked) / 8

    def test_numpy_power_calls_stay_per_block(self, monkeypatch):
        """The counting gate: a 60 s scalar run makes at most one
        ``np.power`` call per 8 CUBIC congestion-avoidance ticks."""
        calls = [0, 0]  # np.power calls, CUBIC avoidance ticks.
        power, tick = np.power, FluidCubic.tick

        def counted_power(*args, **kwargs):
            calls[0] += 1
            return power(*args, **kwargs)

        def counted_tick(flow, c):
            calls[1] += not flow._in_slow_start
            tick(flow, c)

        monkeypatch.setattr(np, "power", counted_power)
        monkeypatch.setattr(FluidCubic, "tick", counted_tick)
        flows = [FluidSpec("cubic")] * 5 + [FluidSpec("bbr")] * 5
        run_fluid(LinkConfig.from_mbps_ms(100, 40, 2), flows, 60.0, seed=1)
        powers, avoidance_ticks = calls
        assert avoidance_ticks > 10_000
        assert powers <= avoidance_ticks / 8, calls


class TestFluidReno:
    def test_additive_increase_after_loss(self):
        f = FluidReno(0, rtt=0.04)
        f.on_loss(0.0)  # Exit slow start.
        start = f.inflight
        drive(f, 0.04 * 10)  # 10 RTTs → +10 MSS.
        assert f.inflight == pytest.approx(start + 10 * 1500, rel=0.05)

    def test_halves_on_loss(self):
        f = FluidReno(0, rtt=0.04)
        drive(f, 0.2)
        before = f.inflight
        f.on_loss(0.2)
        assert f.inflight == pytest.approx(before / 2)


class TestFluidBBR:
    def test_loss_agnostic(self):
        f = FluidBBR(0, rtt=0.04)
        drive(f, 2.0, throughput=2e6)
        before = f.inflight
        f.on_loss(2.0)
        assert f.inflight == before

    def test_inflight_capped_at_twice_estimated_bdp(self):
        f = FluidBBR(0, rtt=0.04)
        drive(f, 5.0, throughput=2e6, qd=0.0)
        cap = 2.0 * f.bw_est * f.rtt_min_est
        assert f.inflight <= cap * 1.01

    def test_probe_rtt_drains_to_four_packets(self):
        f = FluidBBR(0, rtt=0.04)
        drive(f, 2.0, throughput=2e6)
        # Hold the measured RTT above the minimum for > 10 s; the flow
        # must pass through a 200 ms ProbeRTT drain along the way.
        now = f._test_now
        drained = False
        for _ in range(1100):
            now += 0.01
            f.tick(ctx(now, throughput=2e6, qd=0.05))
            if f._probe_rtt_until is not None:
                drained = True
                assert f.inflight == 4 * 1500
        assert drained

    def test_probe_rtt_refreshes_rtt_min(self):
        f = FluidBBR(0, rtt=0.04)
        drive(f, 2.0, throughput=2e6)
        drive(f, 10.5, throughput=2e6, qd=0.05)
        # After the stale-RTT period a probe ran; subsequent smaller
        # samples (others' queue at 30 ms) set the new minimum.
        drive(f, 0.3, throughput=2e6, qd=0.03)
        assert f.rtt_min_est == pytest.approx(0.07, rel=0.05)

    def test_rtt_bloat_raises_inflight_cap(self):
        """Equation (9): a bloated RTT_min raises the 2×BDP cap — the
        mechanism behind BBR's buffer share in the model."""
        caps = {}
        for name, rtt_min in (("low", 0.04), ("high", 0.08)):
            f = FluidBBR(0, rtt=0.04)
            f._in_startup = False
            f._bw_filter.update(0.0, 2e6)
            f.rtt_min_est = rtt_min
            f._rtt_min_stamp = 0.0
            f.inflight = 1e6  # Far above any cap.
            f.tick(ctx(0.01, throughput=2e6, qd=0.06))
            caps[name] = f.inflight
        assert caps["low"] == pytest.approx(2 * 2e6 * 0.04)
        assert caps["high"] == pytest.approx(2 * 2e6 * 0.08)
        assert caps["high"] > caps["low"]

    def test_gain_cycling_changes_pacing_phase(self):
        f = FluidBBR(0, rtt=0.04)
        drive(f, 2.0, throughput=2e6)
        gains = set()
        now = f._test_now
        for _ in range(200):
            now += 0.01
            f.tick(ctx(now, throughput=2e6))
            gains.add(f._cycler.gain)
        assert 1.25 in gains and 0.75 in gains


@pytest.mark.parametrize(
    "cls, counter", [(FluidBBR2, "_round_lost"), (FluidVivace, "_mi_lost")]
)
def test_loss_counters_absorb_each_lost_byte_once(monkeypatch, cls, counter):
    """A dropped byte reaches BBRv2's per-round and Vivace's per-MI loss
    counter once, through ``on_drop`` at the drop: summed over the run,
    what the counter absorbs is what the simulation lost for the flow."""
    absorbed = {}

    def read(flow):
        return flow.__dict__.get("_count", 0.0)

    def write(flow, value):
        grown = value - read(flow)
        if grown > 0:  # Resets to 0.0 absorb nothing.
            absorbed[flow.flow_id] = absorbed.get(flow.flow_id, 0.0) + grown
        flow.__dict__["_count"] = value

    monkeypatch.setattr(cls, counter, property(read, write), raising=False)
    flows = [FluidSpec(cc=cls.name), FluidSpec(cc="cubic")]
    sim = FluidSimulation(LinkConfig.from_mbps_ms(20, 20, 0.5), flows)
    sim.run(10.0)
    assert sim._lost[0] > 0
    assert absorbed[0] == pytest.approx(sim._lost[0], rel=1e-9)


class TestFluidBBR2:
    def test_loss_bounds_inflight(self):
        f = FluidBBR2(0, rtt=0.04)
        drive(f, 3.0, throughput=2e6)
        # A round with heavy drops.
        now = f._test_now
        f.tick(ctx(now + 0.01, throughput=2e6))
        f.on_drop(now + 0.01, 20_000)
        f.on_loss(now + 0.02)
        assert f.inflight_hi < float("inf")

    def test_small_loss_tolerated(self):
        f = FluidBBR2(0, rtt=0.04)
        drive(f, 3.0, throughput=2e6)
        f._round_lost = 10.0        # ≪ 2% of the round's delivery.
        f._round_delivered = 1e6
        f.on_loss(f._test_now)
        assert f.inflight_hi == float("inf")

    def test_probe_up_regrows_bound(self):
        f = FluidBBR2(0, rtt=0.04)
        drive(f, 3.0, throughput=2e6)
        f._round_lost = 1e5
        f._round_delivered = 1e6
        f.on_loss(f._test_now)
        bound = f.inflight_hi
        drive(f, 4.0, throughput=2e6)
        assert f.inflight_hi > bound


class TestFluidCopa:
    def test_opens_when_no_queue(self):
        f = FluidCopa(0, rtt=0.04)
        start = f.inflight
        drive(f, 1.0, qd=0.0)
        assert f.inflight > start

    def test_closes_when_queue_large(self):
        f = FluidCopa(0, rtt=0.04)
        drive(f, 0.5, qd=0.0)
        f.inflight = 1e6
        before = f.inflight
        drive(f, 1.0, qd=0.2)
        assert f.inflight < before

    def test_halves_on_loss(self):
        f = FluidCopa(0, rtt=0.04)
        drive(f, 0.5)
        before = f.inflight
        f.on_loss(0.5)
        assert f.inflight == pytest.approx(before / 2, rel=0.01)


class TestFluidVivace:
    def test_rate_grows_on_clean_path(self):
        f = FluidVivace(0, rtt=0.04)
        start = f.rate
        # Self-clocked: the achieved rate tracks the current probe rate,
        # so the (1+ε) interval scores higher utility and the rate climbs.
        now = 0.0
        for _ in range(300):
            now += 0.01
            f.tick(ctx(now, qd=0.0, throughput=f._probe_rate()))
        assert f.rate > start

    def test_drop_accounting(self):
        f = FluidVivace(0, rtt=0.04)
        f.tick(ctx(0.01))
        f.on_drop(0.01, 5000.0)
        assert f._mi_lost >= 5000.0

    def test_inflight_tracks_rate(self):
        f = FluidVivace(0, rtt=0.04)
        drive(f, 1.0, qd=0.01)
        assert f.inflight == pytest.approx(
            f._probe_rate() * 0.05, rel=0.2
        )
