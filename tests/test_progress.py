"""repro.obs.progress + repro.campaign.status: ETA math, sidecar, top."""

import json

import pytest

from repro.campaign import (
    campaign_progress,
    parse_spec,
    render_status,
    run_campaign,
)
from repro.exec import Engine
from repro.obs.progress import (
    PROGRESS_NAME,
    ProgressTracker,
    eta_seconds,
    format_duration,
    rss_self_kb,
)

SPEC = {
    "name": "t",
    "link": {"bandwidth_mbps": 20.0, "rtt_ms": 20.0, "buffer_bdp": 1.0},
    "defaults": {
        "duration": 5.0,
        "backend": "fluid",
        "mix": "cubic:1,bbr:1",
    },
    "axes": [{"name": "buffer_bdp", "values": [1, 2, 3]}],
}


def _spec():
    return parse_spec(json.loads(json.dumps(SPEC)))


# -- eta_seconds: the one shared formula -------------------------------------


def test_eta_none_without_total_or_work():
    assert eta_seconds(0, 10, 5.0) is None  # nothing done yet
    assert eta_seconds(5, None, 5.0) is None  # unknown total
    assert eta_seconds(5, 10, 0.0) is None  # no elapsed, no rate


def test_eta_zero_when_done():
    assert eta_seconds(10, 10, 5.0) == 0.0
    assert eta_seconds(12, 10, 5.0) == 0.0  # overshoot clamps


def test_eta_uses_explicit_rate_over_mean():
    # Cumulative mean would say (10-5)/1 = 5s; the EWMA rate wins.
    assert eta_seconds(5, 10, 5.0, rate_per_s=5.0) == pytest.approx(1.0)
    assert eta_seconds(5, 10, 5.0) == pytest.approx(5.0)


def test_eta_rejects_zero_rate():
    assert eta_seconds(5, 10, 5.0, rate_per_s=0.0) is None


def test_format_duration():
    assert format_duration(None) == "?"
    assert format_duration(0.4) == "0:00"
    assert format_duration(65) == "1:05"
    assert format_duration(3661) == "1:01:01"
    assert format_duration(float("inf")) == "?"
    assert format_duration(float("nan")) == "?"


def test_rss_self_kb_positive():
    assert rss_self_kb() > 0


# -- ProgressTracker ---------------------------------------------------------


def test_tracker_update_and_render():
    tracker = ProgressTracker(total=10, label="t")
    tracker.update(2, 10, 1)
    assert tracker.done == 2
    assert tracker.hits == 1
    line = tracker.render()
    assert "2/10" in line and "t" in line and "eta" in line


def test_tracker_rejects_bad_alpha():
    with pytest.raises(ValueError, match="ewma_alpha"):
        ProgressTracker(ewma_alpha=0.0)
    with pytest.raises(ValueError, match="ewma_alpha"):
        ProgressTracker(ewma_alpha=1.5)


def test_tracker_rate_falls_back_to_cumulative_mean():
    tracker = ProgressTracker(total=10)
    assert tracker.rate_per_s() is None  # nothing done, no estimate
    tracker.done = 5  # bypass update() so no EWMA interval exists
    assert tracker.rate_per_s() > 0


def test_tracker_ewma_smooths_rate():
    tracker = ProgressTracker(total=100, ewma_alpha=0.5)
    tracker.update(10, 100, 0)
    first = tracker.rate_per_s()
    tracker.update(20, 100, 0)
    second = tracker.rate_per_s()
    assert first is not None and second is not None
    assert second > 0


def test_tracker_hit_rate_prefers_point_counters():
    tracker = ProgressTracker(total=4)
    tracker.update(2, 4, 0)  # 2 of 4 *units*
    tracker.update_points(20, 30, 10)  # engine: 20 points, 10 hits
    assert tracker.hit_rate() == pytest.approx(0.5)
    snap = tracker.snapshot()
    assert snap["points_done"] == 20
    assert snap["cache_hits"] == 10


def test_tracker_worker_health_and_stages():
    tracker = ProgressTracker(total=4)
    tracker.heartbeat(1234, rss_kb=2048)
    tracker.heartbeat(1234, rss_kb=1024)  # RSS keeps the max
    tracker.stage_progress("sweep", 1, 4)
    snap = tracker.snapshot()
    worker = snap["workers"]["1234"]
    assert worker["rss_kb"] == 2048
    assert worker["points"] == 2
    assert worker["last_seen_age_s"] >= 0
    assert snap["stages"]["sweep"] == {"done": 1, "total": 4}


def test_sidecar_is_valid_json_and_atomic(tmp_path):
    tracker = ProgressTracker(total=3, label="t")
    tracker.update(1, 3, 0)
    path = tmp_path / PROGRESS_NAME
    tracker.write_sidecar(str(path))
    data = json.loads(path.read_text())
    assert data["kind"] == "progress"
    assert data["done"] == 1 and data["total"] == 3
    # No temp file left behind.
    assert list(tmp_path.iterdir()) == [path]


# -- campaign integration ----------------------------------------------------


def test_run_campaign_writes_progress_sidecar(tmp_path):
    out = tmp_path / "camp"
    run_campaign(_spec(), out, engine=Engine())
    data = json.loads((out / PROGRESS_NAME).read_text())
    assert data["done"] == 3 and data["total"] == 3
    assert data["label"] == "t"
    assert data["stages"]["stage0"] == {"done": 3, "total": 3}
    # The sink's running row counter, not a retained-outcome sum.
    assert data["rows"] == 3


def test_tracker_set_rows_lands_in_snapshot():
    tracker = ProgressTracker(total=2)
    assert tracker.snapshot()["rows"] == 0
    tracker.set_rows(17)
    assert tracker.rows == 17
    assert tracker.snapshot()["rows"] == 17


def test_campaign_progress_complete_dir(tmp_path):
    out = tmp_path / "camp"
    run_campaign(_spec(), out, engine=Engine())
    status = campaign_progress(out)
    assert status["state"] == "complete"
    assert status["units"] == {"done": 3, "total": 3, "remaining": 0}
    assert status["eta_s"] == 0.0
    assert status["stages"]["stage0"] == {"done": 3, "total": 3}
    rendered = render_status(status)
    assert "3/3" in rendered and "complete" in rendered


def test_campaign_progress_midrun_has_finite_eta(tmp_path):
    out = tmp_path / "camp"
    summary = run_campaign(
        _spec(), out, engine=Engine(), stop_after=1
    )
    assert summary.interrupted
    status = campaign_progress(out)
    assert status["state"] == "resumable"
    assert status["units"]["done"] == 1
    assert status["units"]["remaining"] == 2
    # The live sidecar (fresh) or journal fallback must yield a finite,
    # positive ETA — what campaign status shows a resumable run.
    assert status["eta_s"] is not None
    assert status["eta_s"] > 0
    rendered = render_status(status)
    assert "resumable" in rendered


def test_campaign_progress_status_and_tracker_eta_agree(tmp_path):
    """status --json shares eta_seconds with the live tracker: feeding
    both the same counts and rate produces the same estimate."""
    tracker = ProgressTracker(total=8)
    tracker.done = 2
    rate = 0.5
    tracker._ewma_rate = rate
    assert tracker.eta_s() == pytest.approx(
        eta_seconds(2, 8, tracker.elapsed_s, rate)
    )
