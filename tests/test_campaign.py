"""repro.campaign: spec parsing, expansion, journal, resume, fig9 parity."""

import filecmp
import json

import pytest

from repro.campaign import (
    CampaignError,
    Journal,
    JournalError,
    SpecError,
    expand_axes,
    expand_units,
    fig9_campaign,
    iter_units,
    load_campaign,
    load_spec,
    parse_mix,
    parse_spec,
    run_campaign,
)
from repro.exec import Engine, ResultCache

BASE = {
    "name": "t",
    "link": {"bandwidth_mbps": 20.0, "rtt_ms": 20.0, "buffer_bdp": 1.0},
    "defaults": {
        "duration": 5.0,
        "backend": "fluid",
        "mix": "cubic:1,bbr:1",
    },
    "axes": [{"name": "buffer_bdp", "values": [1, 2, 3]}],
}


def _spec(**overrides):
    data = json.loads(json.dumps(BASE))  # Deep copy.
    data.update(overrides)
    return parse_spec(data)


# -- spec parsing ------------------------------------------------------------


def test_parse_happy_path():
    spec = _spec()
    assert spec.name == "t"
    assert spec.link.capacity_mbps == pytest.approx(20.0)
    assert spec.mix == (("cubic", 1), ("bbr", 1))
    assert spec.expand == "grid"
    assert [a.name for a in spec.axes] == ["buffer_bdp"]
    assert spec.stages[0].kind == "sweep"
    # Default metrics: per-CCA throughput for every mix CCA + scalars.
    assert spec.metrics == (
        "per_flow_mbps:cubic",
        "per_flow_mbps:bbr",
        "queuing_delay_ms",
        "drop_rate",
    )


def test_parse_mix_forms_agree():
    assert parse_mix("cubic:3, bbr:2", "t") == (("cubic", 3), ("bbr", 2))
    assert parse_mix([["CUBIC", 3], ["bbr", 2]], "t") == (
        ("cubic", 3),
        ("bbr", 2),
    )
    assert parse_mix("cubic:3,bbr:0", "t") == (("cubic", 3),)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.pop("axes"), "no axes"),
        (lambda d: d.update(axes=[]), "no axes"),
        (
            lambda d: d.update(
                axes=[{"name": "bananas", "values": [1]}]
            ),
            "not a sweepable parameter",
        ),
        (
            lambda d: d["defaults"].update(mix="quic:5"),
            "unknown congestion control",
        ),
        (
            lambda d: d["defaults"].update(mix="cubic:0"),
            "no positive flow counts",
        ),
        (lambda d: d.update(expand="cross"), "expand must be one of"),
        (
            lambda d: d.update(
                axes=[
                    {"name": "buffer_bdp", "values": [1, 2]},
                    {"name": "rtt_ms", "values": [10.0]},
                ],
                expand="zip",
            ),
            "equal-length axes",
        ),
        (
            lambda d: d.update(
                stages=[{"type": "adaptive", "flows": 1}]
            ),
            "flows >= 2",
        ),
        (
            lambda d: d.update(
                axes=[{"name": "mix", "values": ["cubic:1,bbr:1"]}],
                stages=[{"type": "adaptive", "flows": 4}],
            ),
            "remove the mix axis",
        ),
        (
            lambda d: (
                d["defaults"].pop("mix"),
                d.update(stages=[{"type": "sweep"}]),
            ),
            "need a flow mix",
        ),
        (
            lambda d: d.update(metrics={"columns": ["per_flow_mbps"]}),
            "needs a CCA argument",
        ),
        (
            lambda d: d.update(metrics={"columns": ["goodput:bbr"]}),
            "unknown metric",
        ),
        (
            lambda d: d.update(output={"csv": "a/b.csv"}),
            "bare file name",
        ),
        (lambda d: d.pop("name"), "'name' is required"),
        (
            lambda d: d["defaults"].update(backend="ns3"),
            "backend must be one of",
        ),
    ],
)
def test_parse_rejects_with_actionable_message(mutate, message):
    data = json.loads(json.dumps(BASE))
    mutate(data)
    with pytest.raises(SpecError, match=message):
        parse_spec(data)


def test_spec_error_messages_name_the_source():
    with pytest.raises(SpecError, match="myfile.toml"):
        parse_spec({"name": "x"}, source="myfile.toml")


def test_toml_and_json_specs_agree(tmp_path):
    toml = tmp_path / "s.toml"
    toml.write_text(
        'name = "t"\n'
        "[link]\n"
        "bandwidth_mbps = 20.0\nrtt_ms = 20.0\nbuffer_bdp = 1.0\n"
        "[defaults]\n"
        'duration = 5.0\nbackend = "fluid"\nmix = "cubic:1,bbr:1"\n'
        "[[axes]]\n"
        'name = "buffer_bdp"\nvalues = [1, 2, 3]\n'
    )
    js = tmp_path / "s.json"
    js.write_text(json.dumps(BASE))
    assert load_spec(toml).fingerprint() == load_spec(js).fingerprint()


def test_to_dict_round_trips():
    spec = _spec()
    again = parse_spec(spec.to_dict())
    assert again == spec
    assert again.fingerprint() == spec.fingerprint()


def test_load_spec_rejects_bad_suffix_and_bad_toml(tmp_path):
    with pytest.raises(SpecError, match="unsupported spec format"):
        load_spec(tmp_path / "s.yaml")
    bad = tmp_path / "s.toml"
    bad.write_text("name = [unclosed\n")
    with pytest.raises(SpecError, match="invalid TOML"):
        load_spec(bad)


# -- expansion ---------------------------------------------------------------


def test_grid_expansion_order_rightmost_fastest():
    spec = _spec(
        axes=[
            {"name": "rtt_ms", "values": [10.0, 20.0]},
            {"name": "buffer_bdp", "values": [1, 2, 3]},
        ]
    )
    combos = expand_axes(spec)
    assert len(combos) == 6
    assert combos[0] == (("rtt_ms", 10.0), ("buffer_bdp", 1))
    assert combos[1] == (("rtt_ms", 10.0), ("buffer_bdp", 2))
    assert combos[3] == (("rtt_ms", 20.0), ("buffer_bdp", 1))


def test_zip_expansion_pairs_elementwise():
    spec = _spec(
        axes=[
            {"name": "rtt_ms", "values": [10.0, 20.0]},
            {"name": "buffer_bdp", "values": [1, 2]},
        ],
        expand="zip",
    )
    combos = expand_axes(spec)
    assert combos == [
        (("rtt_ms", 10.0), ("buffer_bdp", 1)),
        (("rtt_ms", 20.0), ("buffer_bdp", 2)),
    ]


def test_buffer_only_sweep_preserves_base_link_identity():
    spec = _spec()
    units = expand_units(spec)
    # Exactly what the hand-coded figure loops build with
    # base.with_buffer_bdp(depth): capacity/rtt floats untouched.
    assert units[0].link == spec.link.with_buffer_bdp(1)
    assert units[0].to_point().fingerprint() != (
        units[1].to_point().fingerprint()
    )


def test_adaptive_stage_expands_searches():
    spec = _spec(
        stages=[{"type": "adaptive", "flows": 4, "searches": 3}],
    )
    units = expand_units(spec)
    assert len(units) == 9  # 3 buffers x 3 searches.
    assert [u.search for u in units[:3]] == [0, 1, 2]
    assert all(u.kind == "adaptive" for u in units)
    assert units[0].unit_id() != units[1].unit_id()


def test_unit_ids_stable_across_expansions():
    a = [u.unit_id() for u in expand_units(_spec())]
    b = [u.unit_id() for u in expand_units(_spec())]
    assert a == b


def test_mix_axis_sweeps_flow_mixes():
    spec = _spec(
        defaults={"duration": 5.0, "backend": "fluid"},
        axes=[
            {"name": "mix", "values": ["cubic:2", "cubic:1,bbr:1"]},
        ],
    )
    units = expand_units(spec)
    assert [u.mix for u in units] == [
        (("cubic", 2),),
        (("cubic", 1), ("bbr", 1)),
    ]
    assert units[0].combo_dict()["mix"] == "cubic:2"


# -- journal -----------------------------------------------------------------


def test_journal_round_trip(tmp_path):
    from repro.campaign import JournalRecord

    journal = Journal.in_dir(tmp_path)
    journal.create("t", "f" * 64)
    journal.append(
        JournalRecord(
            unit_id="u0",
            index=0,
            stage="s",
            rows=({"buffer_bdp": 1, "x": 0.5},),
            wall_s=1.5,
        )
    )
    header = journal.read_header(expect_fingerprint="f" * 64)
    records = list(journal.iter_records(expect_fingerprint="f" * 64))
    assert header["name"] == "t"
    assert records[0].rows[0] == {"buffer_bdp": 1, "x": 0.5}
    assert list(records[0].rows[0]) == ["buffer_bdp", "x"]  # Order kept.


def test_journal_tolerates_torn_trailing_line(tmp_path):
    from repro.campaign import JournalRecord

    journal = Journal.in_dir(tmp_path)
    journal.create("t", "f" * 64)
    journal.append(
        JournalRecord(
            unit_id="u0", index=0, stage="s", rows=({},), wall_s=0.0
        )
    )
    with open(journal.path, "a") as handle:
        handle.write('{"kind": "unit", "unit": "u1", "index"')  # Torn.
    records = list(journal.iter_records())
    assert [r.unit_id for r in records] == ["u0"]


def test_journal_rejects_mid_file_corruption(tmp_path):
    journal = Journal.in_dir(tmp_path)
    journal.create("t", "f" * 64)
    with open(journal.path, "a") as handle:
        handle.write("garbage\n")
        handle.write(
            '{"kind":"unit","unit":"u1","index":1,"stage":"s",'
            '"rows":[],"wall_s":0.0}\n'
        )
    with pytest.raises(JournalError, match="corrupt journal line"):
        list(journal.iter_records())


def test_journal_rejects_wrong_fingerprint(tmp_path):
    journal = Journal.in_dir(tmp_path)
    journal.create("t", "a" * 64)
    with pytest.raises(JournalError, match="different campaign"):
        journal.read_header(expect_fingerprint="b" * 64)


def test_journal_missing_file(tmp_path):
    with pytest.raises(JournalError, match="no checkpoint journal"):
        Journal.in_dir(tmp_path).read_header()


# -- end-to-end campaigns ----------------------------------------------------


def _engine(tmp_path):
    return Engine(cache=ResultCache(tmp_path / "cache"))


def test_sweep_campaign_end_to_end(tmp_path):
    spec = _spec()
    summary = run_campaign(spec, tmp_path / "out", engine=_engine(tmp_path))
    assert not summary.interrupted
    assert summary.total_units == 3
    assert summary.executed == 3
    assert summary.rows == 3
    csv_text = (tmp_path / "out" / "results.csv").read_text()
    lines = csv_text.strip().splitlines()
    assert lines[0] == (
        "buffer_bdp,per_flow_mbps:cubic,per_flow_mbps:bbr,"
        "queuing_delay_ms,drop_rate"
    )
    assert len(lines) == 4
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["schema"] == "repro-campaign/1"
    assert manifest["fingerprint"] == spec.fingerprint()
    assert manifest["executed"] == 3


def test_interrupt_resume_zero_resim_identical_csv(tmp_path):
    spec = _spec()

    # Reference: uninterrupted run with its own cache.
    ref_engine = Engine(cache=ResultCache(tmp_path / "cache-a"))
    run_campaign(spec, tmp_path / "ref", engine=ref_engine)

    # Interrupted run: 2 of 3 units, then resume with a fresh engine
    # sharing the same (second) cache.
    cache_b = tmp_path / "cache-b"
    first = Engine(cache=ResultCache(cache_b))
    summary = run_campaign(
        spec, tmp_path / "out", engine=first, stop_after=2
    )
    assert summary.interrupted
    assert summary.executed == 2
    assert summary.csv_path is None
    assert first.simulated == 2

    second = Engine(cache=ResultCache(cache_b))
    resumed = run_campaign(
        spec, tmp_path / "out", engine=second, resume=True
    )
    assert not resumed.interrupted
    assert resumed.from_journal == 2
    assert resumed.executed == 1
    # Zero repeat simulations: only the one missing unit ran.
    assert second.simulated == 1
    assert second.hits == 0
    assert filecmp.cmp(
        tmp_path / "ref" / "results.csv",
        tmp_path / "out" / "results.csv",
        shallow=False,
    )


def test_resume_killed_mid_unit_hits_cache(tmp_path):
    """A unit that simulated but never journaled resolves from cache."""
    spec = _spec()
    cache = ResultCache(tmp_path / "cache")
    first = Engine(cache=cache)
    run_campaign(spec, tmp_path / "out", engine=first, stop_after=2)
    # Simulate a crash after the 3rd unit's cache write but before its
    # journal record: warm the cache with the missing point.
    missing = expand_units(spec)[2]
    Engine(cache=cache).run_points([missing.to_point()])

    second = Engine(cache=cache)
    resumed = run_campaign(
        spec, tmp_path / "out", engine=second, resume=True
    )
    assert resumed.executed == 1
    assert second.simulated == 0  # Answered from cache.
    assert second.hits == 1


def test_fresh_run_refuses_existing_journal(tmp_path):
    spec = _spec()
    run_campaign(spec, tmp_path / "out", engine=_engine(tmp_path))
    with pytest.raises(CampaignError, match="campaign resume"):
        run_campaign(spec, tmp_path / "out", engine=_engine(tmp_path))


def test_resume_rejects_changed_spec(tmp_path):
    run_campaign(_spec(), tmp_path / "out", engine=_engine(tmp_path))
    changed = _spec(name="other")
    with pytest.raises(JournalError, match="different campaign"):
        run_campaign(
            changed, tmp_path / "out", engine=_engine(tmp_path), resume=True
        )


def test_load_campaign_round_trip(tmp_path):
    spec = _spec()
    run_campaign(spec, tmp_path / "out", engine=_engine(tmp_path))
    loaded = load_campaign(tmp_path / "out")
    assert loaded == spec
    assert loaded.fingerprint() == spec.fingerprint()


def test_load_campaign_missing_dir(tmp_path):
    with pytest.raises(CampaignError, match="not a campaign directory"):
        load_campaign(tmp_path)


# -- adaptive stages ---------------------------------------------------------


def cache_entries(root):
    """``{relative entry path: bytes}`` of a result-cache directory."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_adaptive_stage_matches_direct_bisection(tmp_path):
    """A stage of NE units — advanced in lock step, a round of every
    live search being one engine batch — equals hand-wiring one
    bisect_nash per search (fig9's loop): the rows, and the cache
    entries written, byte for byte."""
    from repro.core.game import GroupGame, bisect_nash
    from repro.experiments.runner import distribution_payoff_fn

    buffers, searches, flows = [1, 2, 4], 2, 6
    spec = _spec(
        defaults={"duration": 5.0, "backend": "fluid"},
        axes=[{"name": "buffer_bdp", "values": buffers}],
        stages=[{"type": "adaptive", "flows": flows, "searches": searches}],
    )
    engine = _engine(tmp_path)
    stream = iter_units(spec, expand_units(spec), engine=engine)
    outcomes = []
    while True:
        try:
            outcomes.append(next(stream))
        except StopIteration as stop:
            assert not stop.value  # Not interrupted.
            break
    outcomes.sort(key=lambda outcome: outcome.index)
    assert len(outcomes) == len(buffers) * searches

    solo = Engine(cache=ResultCache(tmp_path / "solo"))
    expected = []
    for buffer in buffers:
        for search in range(searches):
            payoff = distribution_payoff_fn(
                spec.link.with_buffer_bdp(buffer),
                flows,
                duration=5.0,
                backend="fluid",
                seed=0 + 7919 * search,
                engine=solo,
            )
            found, _evaluated = bisect_nash(GroupGame([flows], payoff))
            expected.append([(buffer, search, k, flows - k) for k in found])
    got = [
        [
            (
                row["buffer_bdp"],
                row["search"],
                row["ne_challenger"],
                row["ne_incumbent"],
            )
            for row in outcome.rows
        ]
        for outcome in outcomes
    ]
    assert got == expected
    assert engine.simulated == solo.simulated > 0
    assert cache_entries(tmp_path / "cache") == cache_entries(
        tmp_path / "solo"
    )


def test_adaptive_campaign_shares_cache_with_figure_path(tmp_path):
    """Campaign units and the raw fig9-style loop hit the same entries."""
    from repro.core.game import GroupGame, bisect_nash
    from repro.experiments.runner import distribution_payoff_fn

    spec = _spec(
        defaults={"duration": 5.0, "backend": "fluid"},
        axes=[{"name": "buffer_bdp", "values": [2]}],
        stages=[{"type": "adaptive", "flows": 4, "searches": 2}],
    )
    cache = ResultCache(tmp_path / "cache")

    # Warm the cache exactly the way figure9 would.
    warm = Engine(cache=cache)
    for search in range(2):
        payoff = distribution_payoff_fn(
            spec.link.with_buffer_bdp(2),
            4,
            duration=5.0,
            backend="fluid",
            seed=0 + 7919 * search,
            engine=warm,
        )
        bisect_nash(GroupGame([4], payoff))
    assert warm.simulated > 0

    cold = Engine(cache=cache)
    for _outcome in iter_units(spec, expand_units(spec), engine=cold):
        pass
    assert cold.simulated == 0  # Every point answered from cache.
    assert cold.hits == warm.simulated


def test_unknown_loss_mode_is_rejected_where_it_is_declared():
    """It used to pass validation and die inside the simulator."""
    adaptive = [{"type": "adaptive", "flows": 4}]
    modes = ["proportional", "sync", "bogus-mode"]
    with pytest.raises(SpecError, match=r"axes\[0\].values\[2\]: loss_mode"):
        _spec(stages=adaptive, axes=[{"name": "loss_mode", "values": modes}])
    data = json.loads(json.dumps(BASE))
    data["defaults"]["loss_mode"] = "bogus"
    with pytest.raises(
        SpecError,
        match="defaults.loss_mode: .*one of sync, desync, proportional",
    ):
        parse_spec(data)


def test_adaptive_stage_honours_loss_mode(tmp_path):
    """Each loss_mode is its own search over its own points; it used to
    re-run the proportional search under every label."""
    cache = ResultCache(tmp_path / "cache")

    def search(axis):
        spec = _spec(
            defaults={"duration": 5.0, "backend": "fluid"},
            axes=[axis],
            stages=[{"type": "adaptive", "flows": 4}],
        )
        engine = Engine(cache=cache)
        stats, rows = [], []
        for outcome in iter_units(spec, expand_units(spec), engine=engine):
            stats.append(dict(engine.stats))
            rows.append(
                [(r["ne_challenger"], r["ne_incumbent"]) for r in outcome.rows]
            )
        return stats, rows

    stats, (proportional, _sync) = search(
        {"name": "loss_mode", "values": ["proportional", "sync"]}
    )
    # The two searches advance together and share no fingerprint.
    both = stats[-1]["simulated"]
    assert stats[-1]["cache_hits"] == 0
    # The proportional combination is the search a spec without the
    # axis runs (the default): same points, same equilibria — and the
    # sync combination simulated points of its own on top of them.
    stats, (default,) = search({"name": "buffer_bdp", "values": [1.0]})
    assert stats[0]["simulated"] == 0
    assert 0 < stats[0]["cache_hits"] < both
    assert default == proportional


def test_axis_no_stage_consumes_is_rejected():
    population = [{"type": "population", "flows": 4}]
    for name, values in (
        ("loss_mode", ["sync"]),
        ("backend", ["fluid", "packet"]),
    ):
        with pytest.raises(SpecError, match=f"axis {name} only applies to"):
            _spec(stages=population, axes=[{"name": name, "values": values}])
        # Any stage that does consume it makes the axis legal.
        _spec(
            stages=population + [{"name": "s", "type": "sweep"}],
            axes=[{"name": name, "values": values}],
        )


def test_fig9_campaign_matches_bundled_spec():
    from repro.campaign import bundled_campaign_dir

    bundled = load_spec(bundled_campaign_dir() / "fig9-ne-quick.toml")
    assert bundled.fingerprint() == fig9_campaign().fingerprint()
    assert bundled == fig9_campaign()


def test_fig9_campaign_full_scale_shape():
    spec = fig9_campaign(scale="full")
    stage = spec.stages[0]
    assert stage.flows == 50
    assert stage.searches == 10
    axis = spec.axis("buffer_bdp")
    assert axis is not None and len(axis.values) == 51
    assert len(expand_units(spec)) == 510


def test_fig9_campaign_rejects_bad_scale():
    with pytest.raises(ValueError, match="scale"):
        fig9_campaign(scale="paper")


def test_bundled_specs_all_validate():
    from repro.campaign import list_bundled_campaigns

    specs = list_bundled_campaigns()
    assert len(specs) >= 2
    for path in specs:
        spec = load_spec(path)
        assert expand_units(spec)


# -- scenario axes (aqm / ecn / capacity_trace) ------------------------------


def test_aqm_axis_resolves_unit_links():
    spec = _spec(
        axes=[{"name": "aqm", "values": ["droptail", "red", "codel"]}],
    )
    units = expand_units(spec)
    assert [u.link.scenario_family for u in units] == [
        "droptail",
        "red",
        "codel",
    ]
    assert [u.combo_dict()["aqm"] for u in units] == [
        "droptail",
        "red",
        "codel",
    ]
    # The drop-tail row keeps the base link's exact identity (and
    # therefore its historical cache fingerprint).
    assert units[0].link == spec.link


def test_ecn_axis_toggles_marking():
    spec = _spec(
        axes=[
            {"name": "aqm", "values": ["red"]},
            {"name": "ecn", "values": [False, True]},
        ],
    )
    units = expand_units(spec)
    assert [u.link.aqm.ecn for u in units] == [False, True]
    assert units[0].unit_id() != units[1].unit_id()


def test_capacity_trace_axis_resolves_unit_links():
    spec = _spec(
        axes=[
            {"name": "capacity_trace", "values": ["constant", "steps:2@0.5"]},
        ],
    )
    units = expand_units(spec)
    assert units[0].link.capacity_trace.is_constant
    assert not units[1].link.capacity_trace.is_constant
    assert units[0].combo_dict()["capacity_trace"] == "constant"


def test_scenario_axes_compose_with_buffer_sweep():
    spec = _spec(
        axes=[
            {"name": "aqm", "values": ["red"]},
            {"name": "buffer_bdp", "values": [1, 2]},
        ],
    )
    units = expand_units(spec)
    assert all(u.link.scenario_family == "red" for u in units)
    assert [u.link.buffer_bdp for u in units] == [1, 2]


def test_bad_aqm_axis_value_is_a_spec_error():
    with pytest.raises(SpecError, match="aqm must be one of"):
        _spec(axes=[{"name": "aqm", "values": ["pie"]}])
    with pytest.raises(SpecError, match="capacity trace"):
        _spec(axes=[{"name": "capacity_trace", "values": ["ramp:1"]}])
    with pytest.raises(SpecError, match="expected a boolean"):
        _spec(axes=[{"name": "ecn", "values": [1]}])


def test_ecn_axis_without_aqm_is_a_spec_error():
    spec = _spec(axes=[{"name": "ecn", "values": [True]}])
    with pytest.raises(SpecError, match="ECN marking requires an AQM"):
        expand_units(spec)


# -- model-error report ------------------------------------------------------


def _report_spec(**overrides):
    data = json.loads(json.dumps(BASE))
    data["defaults"]["duration"] = 4.0
    data["axes"] = [
        {"name": "aqm", "values": ["droptail", "red"]},
        {"name": "backend", "values": ["fluid", "fluid-vec"]},
    ]
    data["metrics"] = {
        "columns": [
            "aggregate_mbps:cubic",
            "aggregate_mbps:bbr",
            "drop_rate",
        ]
    }
    data.update(overrides)
    return parse_spec(data)


def test_model_error_report_scores_backend_pairs(tmp_path):
    from repro.campaign import model_error_report

    spec = _report_spec()
    run_campaign(spec, tmp_path / "out", engine=_engine(tmp_path))
    report = model_error_report(
        tmp_path / "out", reference="fluid", share_cc="bbr"
    )
    # fluid-vec is bitwise-identical to fluid, so every paired row
    # scores exactly zero model error.
    assert len(report.rows) == 2  # One non-reference row per aqm family.
    assert all(row.error == 0.0 for row in report.rows)
    assert sorted(report.families()) == ["droptail", "red"]
    assert report.csv_path.exists()
    text = report.csv_path.read_text()
    assert text.splitlines()[0] == (
        "aqm,backend,bbr_share,bbr_share_ref,model_error"
    )
    assert "model error" in report.render()


def test_model_error_report_requires_compare_axis(tmp_path):
    spec = _spec()  # buffer_bdp sweep only, no backend axis.
    run_campaign(spec, tmp_path / "out", engine=_engine(tmp_path))
    with pytest.raises(CampaignError, match="does not sweep"):
        from repro.campaign import model_error_report

        model_error_report(tmp_path / "out")


def test_model_error_report_requires_share_metric(tmp_path):
    spec = _report_spec(
        metrics={"columns": ["per_flow_mbps:bbr", "drop_rate"]},
    )
    run_campaign(spec, tmp_path / "out", engine=_engine(tmp_path))
    with pytest.raises(CampaignError, match="aggregate_mbps:bbr"):
        from repro.campaign import model_error_report

        model_error_report(tmp_path / "out", reference="fluid")
