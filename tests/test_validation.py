"""Validation reports (model vs Ware vs simulator)."""

import pytest

from repro.experiments.validation import (
    ValidationReport,
    ValidationRow,
    validate_two_flow,
)
from repro.util.config import LinkConfig


def make_report(actual, model, ware):
    rows = [
        ValidationRow(buffer_bdp=float(i + 1), actual=a, model=m, ware=w)
        for i, (a, m, w) in enumerate(zip(actual, model, ware))
    ]
    return ValidationReport(
        link=LinkConfig.from_mbps_ms(100, 40, 1),
        backend="fluid",
        duration=60.0,
        rows=rows,
    )


def test_error_metrics():
    report = make_report(
        actual=[10.0, 20.0], model=[11.0, 19.0], ware=[15.0, 30.0]
    )
    assert report.model_mae == pytest.approx(1.0)
    assert report.ware_mae == pytest.approx(7.5)
    assert report.model_wins
    assert report.model_mre == pytest.approx((0.1 + 0.05) / 2)


def test_render_contains_summary():
    report = make_report([10.0], [11.0], [20.0])
    text = report.render()
    assert "MAE" in text and "model wins" in text


def test_validate_two_flow_fluid_backend():
    link = LinkConfig.from_mbps_ms(100, 40, 1)
    report = validate_two_flow(
        link,
        buffer_bdps=[2, 5],
        duration=120,
        backend="fluid",
        seed=4,
    )
    assert len(report.rows) == 2
    assert report.rows[0].buffer_bdp == 2
    # On the fluid backend at paper scale the model must beat Ware.
    assert report.model_wins
    # And stay within 35% relative error at these moderate buffers.
    assert report.model_mre < 0.35


def test_validate_requires_buffers():
    link = LinkConfig.from_mbps_ms(100, 40, 1)
    with pytest.raises(ValueError):
        validate_two_flow(link, buffer_bdps=[])


def test_validate_sweep_runs_on_the_default_engine(tmp_path):
    """The buffer sweep is one engine batch: an installed default
    engine counts every depth, and a cached rerun simulates nothing
    and reports the same rows."""
    from repro.exec import Engine, ResultCache, use

    link = LinkConfig.from_mbps_ms(20, 20, 1)
    depths = [1, 2, 4]
    reports = []
    for _ in range(2):
        with Engine(cache=ResultCache(tmp_path)) as engine, use(engine):
            reports.append(
                validate_two_flow(
                    link, buffer_bdps=depths, duration=10, backend="fluid"
                )
            )
        if len(reports) == 1:
            assert engine.simulated == len(depths)
            assert engine.hits == 0
        else:
            assert engine.simulated == 0
            assert engine.hits == len(depths)
    assert reports[0].rows == reports[1].rows
    # An explicit engine wins over the default.
    with Engine(cache=ResultCache(tmp_path)) as explicit:
        validate_two_flow(
            link,
            buffer_bdps=depths,
            duration=10,
            backend="fluid",
            engine=explicit,
        )
    assert explicit.hits == len(depths)
