"""Fluid simulator core: queue solving, overflow, conservation."""

import pytest

from repro.fluidsim.core import FluidSimulation, FluidSpec, run_fluid
from repro.fluidsim.vec import run_fluid_vec
from repro.util.config import LinkConfig


def link(mbps=100, rtt=40, bdp=5):
    return LinkConfig.from_mbps_ms(mbps, rtt, bdp)


def test_rejects_empty_flows():
    with pytest.raises(ValueError):
        FluidSimulation(link(), [])


def test_rejects_bad_loss_mode():
    with pytest.raises(ValueError):
        FluidSimulation(link(), [FluidSpec("cubic")], loss_mode="chaos")


def test_rejects_bad_duration():
    sim = FluidSimulation(link(), [FluidSpec("cubic")])
    with pytest.raises(ValueError):
        sim.run(0)


@pytest.mark.parametrize("run", [run_fluid, run_fluid_vec])
@pytest.mark.parametrize("warmup", [-1.0, 2.5, 3.0])
def test_a_bad_warmup_is_named_with_the_duration(run, warmup):
    with pytest.raises(ValueError) as error:
        run(link(), [FluidSpec("cubic")], duration=2.5, warmup=warmup)
    assert f"got warmup={warmup} with duration=2.5" in str(error.value)


def test_rejects_second_run():
    sim = FluidSimulation(link(), [FluidSpec("cubic")])
    sim.run(1.0)
    with pytest.raises(RuntimeError):
        sim.run(1.0)


def test_single_cubic_fills_link():
    result = run_fluid(link(), [FluidSpec("cubic")], duration=60, warmup=10)
    assert result.flows[0].throughput_mbps == pytest.approx(100, rel=0.05)


def test_single_bbr_fills_link():
    result = run_fluid(link(), [FluidSpec("bbr")], duration=60, warmup=10)
    assert result.flows[0].throughput_mbps == pytest.approx(100, rel=0.1)


def test_total_throughput_never_exceeds_capacity():
    specs = [FluidSpec("cubic")] * 3 + [FluidSpec("bbr")] * 3
    result = run_fluid(link(), specs, duration=60, warmup=10)
    assert result.aggregate_throughput() <= link().capacity * 1.001


def test_high_utilization_with_adequate_buffer():
    specs = [FluidSpec("cubic")] * 3 + [FluidSpec("bbr")] * 3
    result = run_fluid(link(), specs, duration=60, warmup=10)
    assert result.aggregate_throughput() >= link().capacity * 0.9


def test_queue_bounded_by_buffer():
    sim = FluidSimulation(link(bdp=2), [FluidSpec("cubic")] * 4)
    sim.run(30)
    assert sim.queue_bytes <= link(bdp=2).buffer_bytes * 1.0001


def test_mean_queuing_delay_bounded():
    result = run_fluid(
        link(bdp=2), [FluidSpec("cubic")] * 4, duration=30, warmup=5
    )
    assert 0 <= result.mean_queuing_delay <= link(bdp=2).max_queuing_delay


def test_symmetric_cubic_flows_fair():
    result = run_fluid(
        link(),
        [FluidSpec("cubic")] * 4,
        duration=120,
        warmup=30,
        seed=5,
        start_jitter=1.0,
    )
    rates = [f.throughput for f in result.flows]
    assert max(rates) / min(rates) < 1.6


def test_all_bbr_flows_reach_fair_share():
    """§4.1 point B: all-BBR flows split the link evenly."""
    n = 5
    result = run_fluid(
        link(), [FluidSpec("bbr")] * n, duration=120, warmup=30
    )
    fair = link().capacity / n
    for f in result.flows:
        assert f.throughput == pytest.approx(fair, rel=0.25)


def test_loss_modes_produce_different_outcomes():
    specs = [FluidSpec("cubic")] * 5 + [FluidSpec("bbr")] * 5
    results = {}
    for mode in ("sync", "desync"):
        r = run_fluid(
            link(), specs, duration=90, warmup=20, loss_mode=mode, seed=2
        )
        results[mode] = r.aggregate_throughput("bbr")
    # Synchronized CUBIC backoffs leave more for BBR's max filter.
    assert results["sync"] != results["desync"]


def test_seed_determinism():
    specs = [FluidSpec("cubic")] * 3 + [FluidSpec("bbr")] * 2
    a = run_fluid(link(), specs, duration=30, seed=9, start_jitter=1.0)
    b = run_fluid(link(), specs, duration=30, seed=9, start_jitter=1.0)
    for fa, fb in zip(a.flows, b.flows):
        assert fa.throughput == fb.throughput


def test_different_seeds_differ():
    specs = [FluidSpec("cubic")] * 3 + [FluidSpec("bbr")] * 2
    a = run_fluid(link(), specs, duration=30, seed=1, start_jitter=1.0)
    b = run_fluid(link(), specs, duration=30, seed=2, start_jitter=1.0)
    assert any(
        fa.throughput != fb.throughput for fa, fb in zip(a.flows, b.flows)
    )


def test_start_time_honoured():
    specs = [FluidSpec("cubic"), FluidSpec("cubic", start_time=20.0)]
    result = run_fluid(link(), specs, duration=40)
    assert result.flows[0].delivered_bytes > result.flows[1].delivered_bytes


def test_heterogeneous_rtt_queue_solver():
    """Mixed RTTs exercise the bisection queue solver."""
    specs = [
        FluidSpec("cubic", rtt=0.010),
        FluidSpec("cubic", rtt=0.050),
    ]
    result = run_fluid(link(), specs, duration=60, warmup=10)
    total = result.aggregate_throughput()
    assert total == pytest.approx(link().capacity, rel=0.1)
    # CUBIC RTT-unfairness: the short-RTT flow gets more.
    assert result.flows[0].throughput > result.flows[1].throughput
