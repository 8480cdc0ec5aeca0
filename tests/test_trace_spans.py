"""repro.obs.trace: span recording, aggregation, Chrome export, workers.

The pool tests exercise the worker hand-off end to end: spans recorded
inside live ``ProcessPoolExecutor`` workers are drained, shipped back
with each result, and merged parent-side with per-worker pid lanes.
"""

import json
import os

import pytest

from repro.exec import Engine, ScenarioPoint
from repro.obs import Telemetry
from repro.obs.trace import (
    Span,
    Tracer,
    aggregate_spans,
    enabled_from_env,
    read_chrome_trace,
    render_span_report,
    write_chrome_trace,
)
from repro.util.config import LinkConfig

#: Span timestamps mix time.time() starts with perf_counter durations,
#: so nesting checks allow a small cross-clock epsilon.
EPS = 5e-3


def link(bdp=3, mbps=20, rtt=20):
    return LinkConfig.from_mbps_ms(mbps, rtt, bdp)


def points(n=3, duration=5.0, **kwargs):
    return [
        ScenarioPoint(
            link=link(bdp=1 + i),
            mix=(("cubic", 2), ("bbr", 2)),
            duration=duration,
            **kwargs,
        )
        for i in range(n)
    ]


# -- Tracer basics -----------------------------------------------------------


def test_span_nesting_records_both_levels():
    tracer = Tracer()
    with tracer.span("outer", cat="t"):
        with tracer.span("inner", cat="t", detail=1):
            pass
    names = [span.name for span in tracer.spans]
    assert names == ["inner", "outer"]  # children finish first
    inner, outer = tracer.spans
    assert inner.start_s >= outer.start_s - EPS
    assert inner.end_s <= outer.end_s + EPS
    assert inner.args == {"detail": 1}
    assert inner.pid == os.getpid()


def test_tracer_snapshot_and_cap():
    tracer = Tracer(max_spans=2)
    for _ in range(4):
        with tracer.span("s"):
            pass
    snap = tracer.snapshot()
    assert snap == {"spans": 2, "dropped_spans": 2}


def test_tracer_rejects_bad_cap():
    with pytest.raises(ValueError, match="max_spans"):
        Tracer(max_spans=0)


def test_drain_merge_roundtrip():
    a = Tracer()
    with a.span("work", cat="x", k="v"):
        pass
    records = a.drain()
    assert a.spans == []
    b = Tracer()
    assert b.merge(records) == 1
    assert b.spans[0].name == "work"
    assert b.spans[0].args == {"k": "v"}
    assert b.spans[0].pid == os.getpid()


def test_enabled_from_env_values():
    assert not enabled_from_env({})
    for off in ("", "0", "false", "No", "OFF"):
        assert not enabled_from_env({"REPRO_TRACE": off})
    for on in ("1", "true", "yes", "spans"):
        assert enabled_from_env({"REPRO_TRACE": on})


# -- aggregation -------------------------------------------------------------


def test_aggregate_self_time_excludes_children():
    spans = [
        Span("child", "t", start_s=1.0, dur_s=2.0, pid=1, tid=1),
        Span("parent", "t", start_s=0.0, dur_s=10.0, pid=1, tid=1),
        Span("child", "t", start_s=5.0, dur_s=1.0, pid=1, tid=1),
    ]
    by_name = {agg.name: agg for agg in aggregate_spans(spans)}
    assert by_name["parent"].total_s == pytest.approx(10.0)
    assert by_name["parent"].self_s == pytest.approx(7.0)
    assert by_name["child"].count == 2
    assert by_name["child"].self_s == pytest.approx(3.0)
    assert by_name["child"].max_s == pytest.approx(2.0)


def test_aggregate_keeps_lanes_separate():
    # Same wall-clock interval on two pids: neither nests in the other.
    spans = [
        Span("a", "t", start_s=0.0, dur_s=4.0, pid=1, tid=1),
        Span("b", "t", start_s=1.0, dur_s=2.0, pid=2, tid=1),
    ]
    by_name = {agg.name: agg for agg in aggregate_spans(spans)}
    assert by_name["a"].self_s == pytest.approx(4.0)
    assert by_name["b"].self_s == pytest.approx(2.0)


def test_render_span_report_lists_pids_and_hotspots():
    spans = [Span("x", "t", start_s=0.0, dur_s=1.0, pid=7, tid=0)]
    hotspots = [{"func": "f.py:1(g)", "calls": 3, "cum_s": 0.5}]
    text = render_span_report(spans, hotspots)
    assert "1 spans from 1 process(es): 7" in text
    assert "f.py:1(g)" in text


def test_render_span_report_says_how_wide_each_batch_was():
    """``point_batch`` spans carry the batch's flow rows next to its
    point count; the report groups equal shapes."""
    from repro.check import use as use_check
    from repro.exec import Engine, ScenarioPoint
    from repro.util.config import LinkConfig

    tracer = Tracer()
    points = [
        ScenarioPoint(
            link=LinkConfig.from_mbps_ms(20, 20, 1 + i),
            mix=(("cubic", 8), ("bbr", 8)),
            duration=1.0,
            trials=2,
        )
        for i in range(3)
    ]
    with use_check(None):  # a live checker keeps points scalar
        Engine(tracer=tracer).run_points(points)
    [batch] = [s for s in tracer.spans if s.name == "point_batch"]
    assert batch.args == {"n": 3, "rows": 96, "backend": "fluid"}
    text = render_span_report(tracer.spans + [batch])
    assert "vectorized batches" in text
    assert text.splitlines()[-1].split()[:3] == ["96", "3", "2"]


# -- Chrome trace-event JSON -------------------------------------------------


@pytest.mark.parametrize("suffix", ["json", "json.gz"])
def test_chrome_roundtrip(tmp_path, suffix):
    tracer = Tracer()
    with tracer.span("outer", cat="t"):
        pass
    path = str(tmp_path / f"trace.{suffix}")
    hotspots = [{"func": "f", "calls": 1, "cum_s": 0.1, "tot_s": 0.1}]
    events = write_chrome_trace(path, tracer.spans, hotspots=hotspots)
    assert events == 2  # one metadata + one span
    parsed = read_chrome_trace(path)
    assert [span.name for span in parsed.spans] == ["outer"]
    assert parsed.spans[0].dur_s == pytest.approx(
        tracer.spans[0].dur_s, abs=1e-6
    )
    assert parsed.hotspots == hotspots
    assert parsed.pids() == [os.getpid()]


def test_chrome_export_is_loadable_object_form(tmp_path):
    tracer = Tracer()
    with tracer.span("s"):
        pass
    path = tmp_path / "t.json"
    write_chrome_trace(str(path), tracer.spans)
    data = json.loads(path.read_text())
    assert isinstance(data["traceEvents"], list)
    assert data["displayTimeUnit"] == "ms"
    phases = {event["ph"] for event in data["traceEvents"]}
    assert phases == {"M", "X"}
    x_events = [e for e in data["traceEvents"] if e["ph"] == "X"]
    assert all(
        e["ts"] >= 0 and e["dur"] >= 0 and "pid" in e and "tid" in e
        for e in x_events
    )


def test_read_chrome_trace_rejects_non_trace(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"spans": []}')
    with pytest.raises(ValueError, match="traceEvents"):
        read_chrome_trace(str(bad))


# -- live worker pools -------------------------------------------------------


def _engine_with_tracing(monkeypatch, jobs, obs=None):
    monkeypatch.setenv("REPRO_TRACE", "1")
    tracer = Tracer()
    return Engine(jobs=jobs, obs=obs, tracer=tracer), tracer


def _span_names(tracer):
    names = {}
    for span in tracer.spans:
        names[span.name] = names.get(span.name, 0) + 1
    return names


def test_pool_merges_worker_spans(monkeypatch):
    """Spans recorded inside pool workers come back merged, well-formed,
    and monotonically timed, with worker pids as separate lanes."""
    engine, tracer = _engine_with_tracing(monkeypatch, jobs=2)
    with engine:
        engine.run_points(points(3))

    spans = list(tracer.spans)
    point_spans = [s for s in spans if s.name == "point"]
    simulate_spans = [s for s in spans if s.name == "simulate"]
    assert len(point_spans) == 3
    assert len(simulate_spans) == 3
    main = os.getpid()
    assert all(s.pid != main for s in point_spans)  # ran in workers
    assert {s.pid for s in spans if s.name == "cache_lookup"} == {main}
    for span in spans:
        assert span.dur_s >= 0
        assert span.start_s > 0
    # Each worker's simulate nests inside its point span.
    for sim in simulate_spans:
        parents = [
            p
            for p in point_spans
            if p.pid == sim.pid
            and sim.start_s >= p.start_s - EPS
            and sim.end_s <= p.end_s + EPS
        ]
        assert parents, f"simulate span has no enclosing point: {sim}"


def test_span_structure_stable_across_jobs(monkeypatch):
    """jobs=1 and jobs=4 record the same span names and counts; only
    the pids differ (inline vs worker lanes)."""
    inline_engine, inline_tracer = _engine_with_tracing(monkeypatch, 1)
    inline_engine.run_points(points(3))
    pool_engine, pool_tracer = _engine_with_tracing(monkeypatch, 4)
    with pool_engine:
        pool_engine.run_points(points(3))
    assert _span_names(inline_tracer) == _span_names(pool_tracer)
    assert {s.pid for s in inline_tracer.spans} == {os.getpid()}
    assert len({s.pid for s in pool_tracer.spans}) > 1


def test_telemetry_snapshot_under_pool(monkeypatch):
    """Engine counters on the parent's bus stay exact with live workers
    (worker-side telemetry is disabled, not double-counted)."""
    obs = Telemetry()
    engine, tracer = _engine_with_tracing(monkeypatch, 2, obs=obs)
    with engine:
        engine.run_points(points(3))
    snap = obs.snapshot()
    assert snap["counters"]["exec.points.submitted"] == 3
    assert snap["counters"]["exec.points.simulated"] == 3
    assert "exec.cache.hits" not in snap["counters"]
    assert snap["timers"]["exec.point.wall"]["calls"] == 3
    assert tracer.snapshot()["spans"] == len(tracer.spans)


def test_pool_heartbeats_reach_parent(monkeypatch):
    beats = []
    monkeypatch.setenv("REPRO_TRACE", "1")
    engine = Engine(
        jobs=2, heartbeat=lambda pid, rss: beats.append((pid, rss))
    )
    with engine:
        engine.run_points(points(2))
    assert len(beats) == 2
    assert all(pid != os.getpid() for pid, _rss in beats)
    assert all(rss > 0 for _pid, rss in beats)


def test_profile_slowest_collects_hotspots():
    engine = Engine(profile_slowest=1)
    engine.run_points(points(2))
    assert len(engine.profiled) == 1  # only the slowest kept
    hotspots = engine.hotspots()
    assert hotspots
    assert all(
        {"func", "calls", "tot_s", "cum_s"} <= set(row) for row in hotspots
    )


def test_profile_slowest_reaches_pool_workers():
    """Profiling is an argument the parent passes with each unit, so an
    engine built from Python profiles in its workers with nothing
    exported to the environment."""
    engine = Engine(jobs=2, profile_slowest=2)
    with engine:
        engine.run_points(points(2))
    assert len(engine.profiled) == 2
    assert engine.hotspots()
