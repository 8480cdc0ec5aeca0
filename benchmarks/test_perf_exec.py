"""Execution-engine performance: sequential / parallel / warm-cache
sweep timings, the figure-level determinism guard, and the
disabled-is-free guards for the sanitizer and the span tracer.

The recorded trajectory (pool speedup with its ``jobs`` and core count,
warm-cache cost per point) is the repo benchmark's ``exec.*`` metrics
(``benchmarks/e2e``).
"""

import os
import time

from repro.exec import Engine, ResultCache, ScenarioPoint
from repro.experiments.figures import figure9
from repro.obs import Telemetry
from repro.util.config import LinkConfig

SWEEP_SIZE = 8


def _sweep_points(duration=40.0):
    """A figure-5-style sweep: distinct buffer depths, 4 flows each."""
    return [
        ScenarioPoint(
            link=LinkConfig.from_mbps_ms(20, 20, 1 + i),
            mix=(("cubic", 2), ("bbr", 2)),
            duration=duration,
        )
        for i in range(SWEEP_SIZE)
    ]


def test_perf_exec_sequential_sweep(benchmark):
    results = benchmark(lambda: Engine(jobs=1).run_points(_sweep_points()))
    assert len(results) == SWEEP_SIZE


def test_perf_exec_parallel_sweep(benchmark):
    jobs = min(4, os.cpu_count() or 1)
    results = benchmark(
        lambda: Engine(jobs=jobs).run_points(_sweep_points())
    )
    assert len(results) == SWEEP_SIZE


def test_perf_exec_warm_cache(benchmark, tmp_path):
    """Answering a whole sweep from cache must be near-instant."""
    Engine(cache=ResultCache(tmp_path)).run_points(_sweep_points())

    def warm():
        engine = Engine(cache=ResultCache(tmp_path))
        results = engine.run_points(_sweep_points())
        assert engine.stats["simulated"] == 0
        return results

    assert len(benchmark(warm)) == SWEEP_SIZE


def test_fig9_parallel_and_warm_runs_are_identical(tmp_path):
    """The acceptance determinism guard, at figure granularity.

    One quick fig9 panel three ways: jobs=1 cold, jobs=4 cold, and a
    warm rerun over the jobs=4 cache.  All three must produce the
    identical FigureResult, and the warm rerun must invoke the
    simulator zero times (checked through the obs counters).
    """
    kwargs = dict(capacity_mbps=50, rtt_ms=20, scale="quick")
    cold_seq = figure9(
        engine=Engine(jobs=1, cache=ResultCache(tmp_path / "seq")), **kwargs
    )
    par_cache = ResultCache(tmp_path / "par")
    cold_par = figure9(engine=Engine(jobs=4, cache=par_cache), **kwargs)
    assert cold_par == cold_seq

    obs = Telemetry()
    warm_engine = Engine(jobs=4, cache=ResultCache(tmp_path / "par"), obs=obs)
    warm = figure9(engine=warm_engine, **kwargs)
    assert warm == cold_seq
    assert warm_engine.stats["simulated"] == 0
    assert obs.counter("exec.points.simulated") == 0
    assert obs.counter("exec.cache.hits") == obs.counter(
        "exec.points.submitted"
    )


def test_check_disabled_is_free():
    """The sanitizer regression guard (paired comparison, no
    pytest-benchmark).  A checks-off run must (a) produce results
    identical to a checks-on run — the sanitizer observes, never
    perturbs — and (b) not pay materially for the instrumentation:
    every site guards on a single ``check is not None`` attribute
    test, so disabled runs are bounded by enabled runs plus noise.
    """
    from statistics import median

    from repro.check import Checker
    from repro.sim.network import FlowSpec, run_dumbbell

    link = LinkConfig.from_mbps_ms(5, 20, 4)
    specs = [FlowSpec("cubic"), FlowSpec("bbr")]

    def run(check):
        start = time.perf_counter()
        result = run_dumbbell(link, specs, 10.0, check=check)
        return result, time.perf_counter() - start

    run(None)  # Warm up interpreter state once.

    plain_times, checked_times = [], []
    plain_result = checked_result = None
    for _ in range(5):
        plain_result, elapsed = run(None)
        plain_times.append(elapsed)
        check = Checker()
        checked_result, elapsed = run(check)
        checked_times.append(elapsed)
        assert check.checks_run > 0  # The sanitizer actually ran.

    assert (
        plain_result.events_processed == checked_result.events_processed
    )
    for plain, checked in zip(plain_result.flows, checked_result.flows):
        assert plain.throughput == checked.throughput
        assert plain.loss_rate == checked.loss_rate

    assert median(plain_times) < median(checked_times) * 1.25


def test_trace_disabled_is_free():
    """The span-tracing regression guard (paired comparison, no
    pytest-benchmark).  A tracing-off run must (a) produce results
    identical to a tracing-on run — spans observe, never perturb — and
    (b) not pay materially for the instrumentation: every site guards
    on a single ``tracer is not None`` attribute test, so disabled
    runs are bounded by enabled runs plus noise.
    """
    from statistics import median

    from repro.obs.trace import Tracer

    points = _sweep_points(duration=10.0)[:2]

    def run(tracer):
        start = time.perf_counter()
        results = Engine(tracer=tracer).run_points(points)
        return results, time.perf_counter() - start

    run(None)  # Warm up interpreter state once.

    plain_times, traced_times = [], []
    plain_results = traced_results = None
    for _ in range(5):
        plain_results, elapsed = run(None)
        plain_times.append(elapsed)
        tracer = Tracer()
        traced_results, elapsed = run(tracer)
        traced_times.append(elapsed)
        assert tracer.spans  # Spans were actually recorded.

    assert plain_results == traced_results  # Tracing never changes numbers.
    assert median(plain_times) < median(traced_times) * 1.25
