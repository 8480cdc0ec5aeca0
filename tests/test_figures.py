"""Figure-generator plumbing (fast paths only; heavy figures run in
benchmarks/)."""

import pytest

from repro.experiments.figures import (
    FIGURES,
    figure5,
    figure6,
    figure9,
)


def test_registry_covers_every_evaluation_figure():
    # Figure 2 is a schematic and Table 1 the notation table; everything
    # else in the paper's evaluation must be regenerable.
    expected = {
        "fig1",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
    }
    assert set(FIGURES) == expected


def test_invalid_scale_rejected():
    with pytest.raises(ValueError):
        figure6(scale="huge")
    with pytest.raises(ValueError):
        figure9(scale="paper")


def test_figure6_is_pure_model_and_fast():
    fig = figure6()
    assert fig.figure_id == "fig6"
    assert "fair-share" in fig.names
    assert len(fig.get("bbr-per-flow-sync").y) == 10
    assert "N_b" in fig.notes


def test_figure6_custom_size():
    fig = figure6(n_flows=6, buffer_bdp=5)
    assert len(fig.get("bbr-per-flow-sync").y) == 6


def test_figure5_counts_include_endpoint():
    # 20 flows at quick scale steps by 2 but must still end at 20.
    fig = figure5(n_flows=4, buffer_bdp=3)
    assert fig.get("actual").x[-1] == 4


def test_figure9_is_the_same_at_jobs_1_jobs_4_and_warm(tmp_path, monkeypatch):
    """One figure-9 panel three ways — ``jobs=1`` cold, ``jobs=4`` cold
    and warm over the ``jobs=4`` cache — is one ``FigureResult``, and
    the warm run simulates nothing.  The panel's campaign is shrunk
    (two buffers, six flows, 10 s) so the contract costs about a
    second; the figure code around it is the shipped one."""
    from repro.campaign import parse_spec, studies
    from repro.exec import Engine, ResultCache
    from repro.obs import Telemetry

    full_panel = studies.fig9_campaign

    def small_panel(**kwargs):
        data = full_panel(**kwargs).to_dict()
        data["defaults"]["duration"] = 10.0
        data["axes"] = [{"name": "buffer_bdp", "values": [2, 10]}]
        data["stages"][0]["flows"] = 6
        return parse_spec(data)

    monkeypatch.setattr(studies, "fig9_campaign", small_panel)
    panel = dict(capacity_mbps=50, rtt_ms=20, scale="quick")
    sequential = figure9(
        engine=Engine(jobs=1, cache=ResultCache(tmp_path / "seq")), **panel
    )
    with Engine(jobs=4, cache=ResultCache(tmp_path / "par")) as engine:
        assert figure9(engine=engine, **panel) == sequential
    obs = Telemetry()
    with Engine(jobs=4, cache=ResultCache(tmp_path / "par"), obs=obs) as warm:
        assert figure9(engine=warm, **panel) == sequential
    assert warm.stats["simulated"] == obs.counter("exec.points.simulated") == 0
    assert obs.counter("exec.cache.hits") == obs.counter(
        "exec.points.submitted"
    ) > 0
    assert sequential.get("observed-ne").x == [2, 2, 10, 10]
