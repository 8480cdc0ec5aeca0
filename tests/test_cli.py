"""CLI subcommands (fast paths only: ``tests.smoke`` regenerates the
figures, and ``tests/test_claims.py`` checks what they show)."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from tests.identity import load, parser_surface


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig9" in out
    assert "cubic" in out and "bbr" in out


def test_predict_two_flow(capsys):
    code = main(
        ["predict", "--mbps", "100", "--rtt-ms", "40", "--buffer-bdp", "5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "2-flow model" in out
    assert "40.6%" in out  # Known value for this configuration.
    assert "ware" in out.lower()


def test_predict_multi_flow(capsys):
    code = main(["predict", "--cubic", "5", "--bbr", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "multi-flow model" in out
    assert "per-flow BBR in [" in out


@pytest.mark.parametrize(
    "argv,code",
    [
        (["predict", "--mbps", "0"], 2),
        (["predict", "--rtt-ms", "-5"], 2),
        (["predict", "--buffer-bdp", "-1"], 2),
        (["predict", "--cubic", "-1"], 2),
        (["predict", "--cubic", "0", "--bbr", "0"], 2),
        (["nash", "--flows", "0"], 2),
        (["nash", "--buffer-bdp", "0"], 2),
        (["validate", "--buffer-bdp", "0"], 2),
        (["predict", "--cubic", "2", "--bbr", "0"], 2),
        (["predict", "--cubic", "0", "--bbr", "2"], 2),
    ],
)
def test_model_commands_reject_bad_input_in_one_line(argv, code, capsys):
    """Bad input takes the one ``bad scenario:`` path of simulate and
    evolve (exit 2, one line, no traceback, nothing on stdout).  A
    one-CCA mix is bad input to ``predict``: its models split a link
    between BBR and CUBIC."""
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert err.startswith("bad scenario: ") and err.count("\n") == 1
    assert out == ""


def test_nash(capsys):
    code = main(["nash", "--flows", "50", "--buffer-bdp", "10"])
    assert code == 0
    out = capsys.readouterr().out
    assert "predicted NE" in out
    assert "CUBIC" in out


def test_simulate_fluid(capsys):
    code = main(
        [
            "simulate",
            "cubic:1",
            "bbr:1",
            "--mbps",
            "20",
            "--duration",
            "20",
            "--backend",
            "fluid",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "cubic" in out and "bbr" in out
    assert "queuing delay" in out


def test_simulate_bad_mix(capsys):
    assert main(["simulate", "cubic-5"]) == 2


def test_figure_unknown_id(capsys):
    assert main(["figure", "fig99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_figure_fig6_renders_and_exports(tmp_path, capsys):
    code = main(["figure", "fig6", "--csv-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "fig6" in out
    results = Path(__file__).resolve().parents[1] / "results"
    for name in ("fig6.csv", "fig6.txt"):
        assert (tmp_path / name).read_bytes() == (results / name).read_bytes()


def test_figure_csv_dir_is_checked_before_the_figure_runs(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["figure", "6", "--csv-dir", str(taken)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # Nothing ran, nothing rendered.
    assert captured.err.startswith("cannot write --csv-dir: ")
    assert str(taken) in captured.err and captured.err.count("\n") == 1


def test_figure_accepts_bare_number(capsys):
    assert main(["figure", "6"]) == 0


def test_validate_fluid(capsys):
    code = main(
        [
            "validate",
            "--mbps",
            "50",
            "--buffers",
            "2",
            "5",
            "--backend",
            "fluid",
            "--duration",
            "60",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "MAE" in out
    assert "wins" in out


def test_simulate_packet_backend(capsys):
    code = main(
        [
            "simulate",
            "cubic:1",
            "--mbps",
            "5",
            "--rtt-ms",
            "20",
            "--duration",
            "10",
            "--backend",
            "packet",
        ]
    )
    assert code == 0
    assert "cubic" in capsys.readouterr().out


def test_evolve(capsys):
    code = main(
        [
            "evolve",
            "--flows",
            "4",
            "--buffer-bdp",
            "3",
            "--duration",
            "40",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "best-response path" in out
    assert "converged mix" in out


@pytest.fixture
def evolve(capsys, counting_engine):
    """Run ``evolve`` on a 5-second game under the counting engine:
    ``evolve(*argv) -> (exit code, stdout, stderr)``."""
    from repro.exec import use

    def run(*argv):
        with use(counting_engine):
            code = main(["evolve", "--duration", "5", *argv])
        return (code, *capsys.readouterr())

    return run


def test_evolve_measures_the_table_as_one_batch(evolve, counting_engine):
    code, _out, _err = evolve("--flows", "4")
    assert code == 0
    assert [len(call) for call in counting_engine.calls] == [5]
    assert counting_engine.stats["simulated"] == 5


def test_evolve_reads_cca_names_case_insensitively(evolve):
    # Upper-case names used to read every payoff as 0.0: five "NE".
    game = ["--flows", "4", "--buffer-bdp", "1"]
    _, lower, _ = evolve(*game)
    code, upper, _ = evolve(
        *game, "--incumbent", "CUBIC", "--challenger", "BBR"
    )
    assert code == 0
    assert "CUBIC vs BBR" in upper
    assert upper.replace("CUBIC", "cubic").replace("BBR", "bbr") == lower
    assert "equilibria (±2% tolerance): [4]" in lower
    assert "converged mix: 0 cubic / 4 bbr" in lower


@pytest.mark.parametrize(
    "argv",
    [
        ["--flows", "4", "--start", "9"],  # Was: IndexError, after the sweep.
        ["--flows", "4", "--start", "-1"],  # Was: exit 0, "-1 bbr".
        ["--flows", "0"],  # Was: ValueError traceback.
        ["--flows", "4", "--challenger", "nosuch"],  # Was: KeyError.
    ],
)
def test_evolve_rejects_bad_input_before_simulating(
    evolve, counting_engine, argv
):
    code, out, err = evolve(*argv)
    assert code == 2
    assert err.startswith("bad scenario: ") and err.count("\n") == 1
    assert out == ""
    assert counting_engine.stats["simulated"] == 0


def test_simulate_unknown_cca_is_bad_input(capsys):
    assert main(["simulate", "nosuch:1", "cubic:1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad scenario: mix entry ('nosuch', 1)")
    assert "available: ['bbr'," in err and err.count("\n") == 1


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_simulate_prints_loss_and_drop_stats(capsys):
    code = main(
        [
            "simulate",
            "cubic:2",
            "--mbps",
            "20",
            "--duration",
            "20",
            "--backend",
            "fluid",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "loss" in out
    assert "retx" in out
    assert "drop rate" in out
    assert "queuing delay" in out


def test_simulate_trace_out_and_report_round_trip(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    code = main(
        [
            "simulate",
            "cubic:1",
            "bbr:1",
            "--mbps",
            "20",
            "--duration",
            "30",
            "--backend",
            "fluid",
            "--trace-out",
            str(trace),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"trace records to {trace}" in out
    assert trace.exists()
    # The trace is the one record: no sibling manifest beside it.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.jsonl"]
    assert "wrote manifest" not in out

    # The trace must contain BBR phase transitions and drop counters.
    import json

    records = [json.loads(line) for line in trace.read_text().splitlines()]
    kinds = {r["kind"] for r in records}
    assert {"manifest", "sample", "event", "counter"} <= kinds
    states = [
        r
        for r in records
        if r["kind"] == "event" and r["name"] == "cc.state"
    ]
    assert any(r["fields"]["cc"] == "bbr" for r in states)
    counters = {
        r["name"]: r["value"] for r in records if r["kind"] == "counter"
    }
    assert counters.get("link.dropped_packets", 0) > 0

    code = main(["report", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    # The header comes from the manifest embedded in the trace.
    assert out.startswith("== run: simulate (20 Mbps")
    assert "phase dwell" in out
    assert "bbr" in out
    assert "PROBE_BW" in out
    assert "fluid.steps" in out  # Every counter, in the one view.


def _traced_records(path):
    """A trace's records after its manifest, and the manifest without
    its clocks (the one thing two runs of one point may differ in)."""
    import json

    manifest, *records = [
        json.loads(line) for line in path.read_text().splitlines()
    ]
    for clock in ("created_unix", "wall_time_s"):
        manifest.pop(clock)
    return manifest, records


def test_traced_simulate_records_the_same_run_anywhere(tmp_path, capsys):
    """A traced point runs here, uncached: ``--jobs 2`` and a warm
    cache write the records of a cold ``--jobs 1`` run, and print no
    ``cache:`` line."""
    argv = "simulate cubic:1 bbr:1 --duration 20 --trace-out".split()
    cache = ["--cache-dir", str(tmp_path / "cache")]
    # Warm the cache with the untraced point first.
    assert main(argv[:-1] + cache) == 0
    assert "cache: miss" in capsys.readouterr().out
    runs = {
        "cold": [],
        "jobs2": ["--jobs", "2"],
        "warm": cache,
    }
    traces = {}
    for name, flags in runs.items():
        path = tmp_path / f"{name}.jsonl"
        assert main(argv + [str(path)] + flags) == 0
        assert "cache:" not in capsys.readouterr().out
        traces[name] = _traced_records(path)
    manifest, records = traces["cold"]
    assert traces["jobs2"] == traces["warm"] == (manifest, records)
    names = {r["name"] for r in records if r["kind"] in ("event", "counter")}
    assert {"cc.state", "fluid.steps"} <= names


def test_traced_simulate_refuses_trials(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    argv = "simulate cubic:1 bbr:1 --duration 5 --trials 2 --trace-out"
    assert main(argv.split() + [str(trace)]) == 2
    err = capsys.readouterr().err
    assert err == "--trace-out records one trial; drop --trials\n"
    assert not trace.exists()


def test_report_missing_file(tmp_path, capsys):
    assert main(["report", str(tmp_path / "missing.jsonl")]) == 2
    assert "cannot read trace" in capsys.readouterr().err


def test_report_malformed_trace(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert main(["report", str(bad)]) == 2
    assert "malformed trace" in capsys.readouterr().err


def test_simulate_cache_dir_miss_then_hit(tmp_path, capsys):
    argv = [
        "simulate",
        "cubic:1",
        "bbr:1",
        "--mbps",
        "20",
        "--duration",
        "10",
        "--cache-dir",
        str(tmp_path),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "cache: miss" in cold
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "cache: hit" in warm
    # The simulated throughput lines are identical on the warm run.
    sim = [l for l in cold.splitlines() if "Mbps/flow" in l]
    assert sim and sim == [l for l in warm.splitlines() if "Mbps/flow" in l]


def test_simulate_trials_hit_only_when_every_seed_is_cached(
    tmp_path, capsys
):
    argv = "simulate cubic:1 bbr:1 --duration 5 --cache-dir".split()
    argv.append(str(tmp_path))
    assert main(argv + ["--trials", "2"]) == 0
    assert "cache: miss" in capsys.readouterr().out
    # Seeds 0 and 1 are cached; seed 2 is not.
    assert main(argv + ["--trials", "3"]) == 0
    assert "cache: miss" in capsys.readouterr().out
    assert main(argv + ["--trials", "3"]) == 0
    assert "cache: hit" in capsys.readouterr().out


def test_simulate_prints_same_bytes_with_and_without_cache(tmp_path, capsys):
    """A plain simulate is an inline, cache-less engine unit of one: the
    same route a cached run takes, so only the ``cache:`` line differs."""
    argv = ["simulate", "cubic:2", "bbr:2", "--duration", "10"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
    cached = capsys.readouterr().out.splitlines(keepends=True)
    assert [line for line in cached if "cache:" in line] == [cached[-1]]
    assert "".join(cached[:-1]) == plain


def test_simulate_no_cache_with_cache_dir_is_rejected(tmp_path, capsys):
    argv = [
        "simulate",
        "cubic:1",
        "bbr:1",
        "--duration",
        "10",
        "--cache-dir",
        str(tmp_path),
        "--no-cache",
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "contradictory" in err
    assert len(err.strip().splitlines()) == 1  # One-line diagnostic.
    assert not any(tmp_path.glob("??/*.json"))


def test_no_cache_alone_still_works(capsys):
    argv = [
        "simulate",
        "cubic:1",
        "--mbps",
        "20",
        "--duration",
        "5",
        "--no-cache",
    ]
    assert main(argv) == 0
    assert "cache:" not in capsys.readouterr().out


def test_simulate_jobs_rejects_non_positive():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "cubic:1", "--jobs", "0"])


def test_figure_exec_summary_and_cache(tmp_path, capsys):
    (tmp_path / "csv").mkdir()
    argv = [
        "figure",
        "6",
        "--scale",
        "quick",
        "--cache-dir",
        str(tmp_path),
        "--csv-dir",
        str(tmp_path / "csv"),
    ]
    # fig6 is model-only (no scenario points): no exec summary expected.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "exec:" not in out


SMOKE_SPEC = """\
name = "cli-smoke"
[link]
bandwidth_mbps = 20.0
rtt_ms = 20.0
buffer_bdp = 1.0
[defaults]
duration = 5.0
backend = "fluid"
mix = "cubic:1,bbr:1"
[[axes]]
name = "buffer_bdp"
values = [1, 2, 3]
"""


def _write_smoke_spec(tmp_path):
    spec = tmp_path / "smoke.toml"
    spec.write_text(SMOKE_SPEC)
    return spec


def test_campaign_validate_ok(tmp_path, capsys):
    spec = _write_smoke_spec(tmp_path)
    assert main(["campaign", "validate", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "units: 3" in out


def test_campaign_validate_missing_axis(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text('name = "x"\n[defaults]\nmix = "cubic:1"\n')
    assert main(["campaign", "validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "campaign error:" in err
    assert "no axes" in err
    assert len(err.strip().splitlines()) == 1  # One line, no traceback.


def test_campaign_validate_bad_cca(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text(
        'name = "x"\n'
        '[defaults]\nmix = "quic:1"\n'
        '[[axes]]\nname = "buffer_bdp"\nvalues = [1]\n'
    )
    assert main(["campaign", "validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "unknown congestion control" in err
    assert "quic" in err


def test_campaign_validate_missing_file(tmp_path, capsys):
    assert main(["campaign", "validate", str(tmp_path / "nope.toml")]) == 2
    assert "no such spec file" in capsys.readouterr().err


def test_campaign_run_resume_status_cycle(tmp_path, capsys):
    spec = _write_smoke_spec(tmp_path)
    out_dir = tmp_path / "camp"
    cache = tmp_path / "cache"
    argv_tail = ["--out", str(out_dir), "--cache-dir", str(cache)]

    # Interrupt after 2 of 3 units: exit 3, journal present, and the
    # streamed partial CSV holds exactly the journaled units' rows.
    code = main(
        ["campaign", "run", str(spec), "--stop-after", "2", *argv_tail]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert "resume with" in captured.out
    assert (out_dir / "journal.jsonl").exists()
    partial = (out_dir / "results.csv").read_text(encoding="utf-8")
    lines = [line for line in partial.splitlines() if line]
    assert len(lines) == 1 + 2  # header + one row per journaled unit
    assert not (out_dir / "manifest.json").exists()

    assert main(["campaign", "status", str(out_dir)]) == 0
    status = capsys.readouterr().out
    assert "resumable" in status
    assert "2/3 completed" in status

    # Resume: only the missing unit executes.
    code = main(
        ["campaign", "resume", str(out_dir), "--cache-dir", str(cache)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "2 from journal" in out
    assert "1 executed" in out
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "manifest.json").exists()

    assert main(["campaign", "status", str(out_dir)]) == 0
    assert "complete" in capsys.readouterr().out


def test_campaign_run_refuses_existing_journal(tmp_path, capsys):
    spec = _write_smoke_spec(tmp_path)
    out_dir = tmp_path / "camp"
    assert (
        main(
            [
                "campaign",
                "run",
                str(spec),
                "--out",
                str(out_dir),
                "--stop-after",
                "1",
            ]
        )
        == 3
    )
    capsys.readouterr()
    assert (
        main(["campaign", "run", str(spec), "--out", str(out_dir)]) == 2
    )
    assert "campaign resume" in capsys.readouterr().err


def test_campaign_resume_without_journal(tmp_path, capsys):
    assert main(["campaign", "resume", str(tmp_path)]) == 2
    assert "not a campaign directory" in capsys.readouterr().err


def test_campaign_run_no_cache_with_cache_dir_rejected(tmp_path, capsys):
    spec = _write_smoke_spec(tmp_path)
    code = main(
        [
            "campaign",
            "run",
            str(spec),
            "--out",
            str(tmp_path / "camp"),
            "--no-cache",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
    )
    assert code == 2
    assert "contradictory" in capsys.readouterr().err


def test_cache_info_and_clear(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "entries: 0" in out

    main(
        [
            "simulate",
            "cubic:1",
            "--mbps",
            "20",
            "--duration",
            "5",
            "--cache-dir",
            str(cache),
        ]
    )
    capsys.readouterr()
    assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    from repro.exec.fingerprint import CACHE_SCHEMA

    assert "entries: 1" in out
    assert f"schema: {CACHE_SCHEMA}" in out

    assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
    assert "entries: 0" in capsys.readouterr().out


def test_list_includes_bundled_campaigns(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "campaigns:" in out
    assert "fig9-ne-quick.toml" in out
    assert "fairness-grid-3axis.toml" in out


def test_figure_cached_rerun_reuses_points(tmp_path, capsys):
    argv = [
        "figure",
        "8",
        "--scale",
        "quick",
        "--jobs",
        "2",
        "--cache-dir",
        str(tmp_path),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "exec:" in cold and "jobs=2" in cold
    assert main(argv) == 0
    warm = capsys.readouterr().out
    cold_line = next(l for l in cold.splitlines() if l.startswith("exec:"))
    warm_line = next(l for l in warm.splitlines() if l.startswith("exec:"))
    points = int(cold_line.split()[1])
    hits = int(warm_line.split(",")[1].split()[0])
    assert hits == points  # Warm rerun answered fully from cache.


def test_cc_list_renders_canonical_table(capsys):
    from repro.cc.laws import ALGORITHMS

    assert main(["cc", "list"]) == 0
    out = capsys.readouterr().out
    for name, spec in ALGORITHMS.items():
        assert name in out
        assert spec.summary in out
    # Every algorithm runs on all three substrates, and the listing
    # says so (packet, scalar fluid, and the vectorized fluid kernel).
    assert out.count("[packet+fluid+fluid-vec]") == len(ALGORITHMS)
    # Law parameters come from the kernel modules.
    assert "C_CUBIC=0.4" in out
    assert "GAIN_CYCLE=(1.25, 0.75," in out


def test_cc_list_substrate_sets_match(capsys):
    """The sets the CLI reports are the registries both substrates use."""
    from repro.cc import available_algorithms
    from repro.fluidsim.flows import available_fluid_algorithms

    assert main(["cc", "list"]) == 0
    out = capsys.readouterr().out
    listed = {
        line.split()[0]
        for line in out.splitlines()
        if line and not line.startswith(" ")
    }
    assert listed == set(available_algorithms())
    assert listed == set(available_fluid_algorithms())


# -- invariant sanitizer and warmup flags (PR 5) ----------------------------


def test_simulate_with_check_flag(monkeypatch, capsys):
    """--check installs a checker and exports REPRO_CHECK (so engine
    worker processes inherit it) for the duration of the command."""
    import os

    from repro.check import get_default
    from repro.experiments import runner

    seen = []
    run_mix_batch = runner.run_mix_batch

    def spy(points, obs=None):
        seen.append((get_default(), os.environ.get("REPRO_CHECK")))
        return run_mix_batch(points, obs=obs)

    monkeypatch.setattr(runner, "run_mix_batch", spy)
    before = get_default()
    code = main(
        [
            "simulate",
            "cubic:1",
            "bbr:1",
            "--mbps",
            "20",
            "--duration",
            "10",
            "--check",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "cubic" in out and "bbr" in out
    [(checker, exported)] = seen
    assert checker is not None and checker is not before
    assert checker.checks_run > 0
    assert exported == "1"
    assert get_default() is before


def test_simulate_packet_with_check_flag(capsys):
    code = main(
        [
            "simulate",
            "cubic:1",
            "--mbps",
            "10",
            "--duration",
            "5",
            "--backend",
            "packet",
            "--check",
        ]
    )
    assert code == 0
    assert "cubic" in capsys.readouterr().out


def test_simulate_custom_warmup(capsys):
    code = main(
        [
            "simulate",
            "cubic:1",
            "--mbps",
            "20",
            "--duration",
            "10",
            "--warmup",
            "2",
        ]
    )
    assert code == 0
    assert "cubic" in capsys.readouterr().out


@pytest.mark.parametrize("warmup", ["-1", "10", "11"])
def test_simulate_invalid_warmup_exits_2(warmup, capsys):
    code = main(
        [
            "simulate",
            "cubic:1",
            "--duration",
            "10",
            "--warmup",
            warmup,
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "warmup must lie in" in err


def test_campaign_run_accepts_check_flag(tmp_path, capsys):
    spec = tmp_path / "smoke.toml"
    spec.write_text(
        """\
name = "check-smoke"
[link]
bandwidth_mbps = 10.0
rtt_ms = 20.0
buffer_bdp = 2.0
[defaults]
duration = 4.0
backend = "fluid"
mix = "cubic:1"
[[axes]]
name = "seed"
values = [0]
"""
    )
    out_dir = tmp_path / "out"
    code = main(
        ["campaign", "run", str(spec), "--out", str(out_dir), "--check"]
    )
    assert code == 0
    assert (out_dir / "results.csv").exists()


# -- span tracing, progress, top (observability PR) --------------------------


def test_simulate_spans_out_and_trace_report(tmp_path, capsys):
    spans = tmp_path / "spans.json"
    code = main(
        [
            "simulate",
            "cubic:1",
            "bbr:1",
            "--mbps",
            "20",
            "--duration",
            "10",
            "--spans-out",
            str(spans),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "span events" in out

    from repro.obs import read_chrome_trace

    parsed = read_chrome_trace(str(spans))
    names = {span.name for span in parsed.spans}
    assert {"point", "simulate"} <= names

    assert main(["trace", "report", str(spans)]) == 0
    report = capsys.readouterr().out
    assert "simulate" in report
    assert "self_s" in report


def test_older_span_exports_and_manifests_still_read(tmp_path, capsys):
    """Earlier releases wrote a ``reproHotspots`` list beside the span
    events and a ``timers`` table into run manifests; both files still
    parse and render, the extra keys ignored."""
    import json

    from repro import BottleneckSpec
    from repro.obs import RunManifest, read_chrome_trace

    spans = tmp_path / "spans.json"
    spans.write_text(
        json.dumps(
            {
                "traceEvents": [
                    {"name": "process_name", "ph": "M", "pid": 7,
                     "tid": 0, "args": {"name": "main"}},
                    {"name": "simulate", "cat": "exec", "ph": "X",
                     "ts": 1e6, "dur": 5e5, "pid": 7, "tid": 0,
                     "args": {"backend": "fluid"}},
                ],
                "displayTimeUnit": "ms",
                "reproHotspots": [
                    {"func": "core.py:1(run)", "calls": 1,
                     "tot_s": 0.1, "cum_s": 0.5},
                ],
            }
        )
    )
    parsed = read_chrome_trace(str(spans))
    assert [(s.name, s.dur_s) for s in parsed.spans] == [("simulate", 0.5)]
    assert main(["trace", "report", str(spans)]) == 0
    report = capsys.readouterr().out
    assert "1 spans from 1 process(es): 7" in report
    assert "core.py" not in report

    older = RunManifest.build(
        label="older",
        link=BottleneckSpec.from_mbps_ms(20, 20, 2),
        mix=[("cubic", 1), ("bbr", 1)],
        backend="fluid",
        duration=10.0,
        seed=0,
        flows=[{"flow_id": 0, "cc": "cubic"}, {"flow_id": 1, "cc": "bbr"}],
    ).to_dict()
    older["timers"] = {"sim.run": {"calls": 1, "total_s": 0.5, "max_s": 0.5}}
    assert RunManifest.from_dict(older).label == "older"
    trace = tmp_path / "run.jsonl"
    trace.write_text(json.dumps({"kind": "manifest", **older}) + "\n")
    assert main(["report", str(trace)]) == 0
    assert "== run: older (20 Mbps, 20 ms, 2 BDP)" in capsys.readouterr().out


def test_simulate_progress_line(capsys):
    code = main(
        [
            "simulate",
            "cubic:1",
            "bbr:1",
            "--mbps",
            "20",
            "--duration",
            "10",
            "--progress",
        ]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "1/1" in err and "eta" in err


def test_trace_report_missing_and_malformed(tmp_path, capsys):
    assert main(["trace", "report", str(tmp_path / "nope.json")]) == 2
    assert "cannot read trace" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["trace", "report", str(bad)]) == 2
    assert "malformed trace" in capsys.readouterr().err


def test_campaign_trace_progress_status_top_cycle(tmp_path, capsys):
    import json

    spec = _write_smoke_spec(tmp_path)
    out_dir = tmp_path / "camp"
    trace_path = tmp_path / "camp-trace.json.gz"

    code = main(
        [
            "campaign",
            "run",
            str(spec),
            "--out",
            str(out_dir),
            "--spans-out",
            str(trace_path),
            "--progress",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "span events" in captured.out
    assert "eta" in captured.err  # the live --progress line

    # Chrome trace: campaign > stage > point vocabulary present.
    from repro.obs import read_chrome_trace

    parsed = read_chrome_trace(str(trace_path))
    names = {span.name for span in parsed.spans}
    assert {"campaign", "stage", "point", "simulate"} <= names

    # progress.json sidecar next to the journal.
    sidecar = json.loads((out_dir / "progress.json").read_text())
    assert sidecar["done"] == 3 and sidecar["total"] == 3

    # status --json shares the tracker's ETA math.
    assert main(["campaign", "status", str(out_dir), "--json"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["state"] == "complete"
    assert status["units"]["done"] == 3
    assert status["eta_s"] == 0.0
    assert "stage0" in status["stages"]

    # Without --json, the same snapshot for humans.
    assert main(["campaign", "status", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert "3/3" in text and "eta" in text


def test_campaign_rejects_trace_out(tmp_path, capsys):
    """``--trace-out`` means the bus JSONL of ``simulate`` only;
    campaign run/resume write spans with ``--spans-out``."""
    spec = _write_smoke_spec(tmp_path)
    for argv in (
        ["campaign", "run", str(spec), "--out", str(tmp_path / "out")],
        ["campaign", "resume", str(tmp_path / "out")],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--trace-out", str(tmp_path / "x.json")])
        assert exit_info.value.code == 2
        assert "--trace-out" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "x.json").exists()


def test_campaign_status_midrun_renders_finite_eta(tmp_path, capsys):
    spec = _write_smoke_spec(tmp_path)
    out_dir = tmp_path / "camp"
    code = main(
        [
            "campaign",
            "run",
            str(spec),
            "--out",
            str(out_dir),
            "--stop-after",
            "2",
        ]
    )
    assert code == 3
    capsys.readouterr()

    assert main(["campaign", "status", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "2/3" in out
    assert "eta" in out and "eta ?" not in out  # finite estimate
    assert "resumable" in out
    assert f"resume with: repro-bbr campaign resume {out_dir}" in out


def test_campaign_status_follows_until_complete(
    tmp_path, capsys, monkeypatch
):
    """``--follow`` redraws every interval until the campaign is
    complete: here a resume finishes it during the first sleep."""
    import repro.cli as cli

    spec = _write_smoke_spec(tmp_path)
    out_dir = tmp_path / "camp"
    argv = ["campaign", "run", str(spec), "--out", str(out_dir)]
    assert main(argv + ["--stop-after", "2"]) == 3
    naps = []

    def resume_while_asleep(seconds):
        naps.append(seconds)
        assert main(["campaign", "resume", str(out_dir)]) == 0

    monkeypatch.setattr("time.sleep", resume_while_asleep)
    capsys.readouterr()
    assert main(["campaign", "status", str(out_dir), "--follow"]) == 0
    assert naps == [cli.FOLLOW_INTERVAL_S]
    out = capsys.readouterr().out
    assert out.index("(resumable)") < out.index("(complete)")


def test_campaign_status_rejects_non_campaign_dir(tmp_path, capsys):
    for flags in ([], ["--follow"]):
        assert main(["campaign", "status", str(tmp_path), *flags]) == 2
        assert "campaign error" in capsys.readouterr().err


# -- scenario flags (--aqm / --ecn / --capacity-trace) ----------------------


def test_simulate_with_red_aqm(capsys):
    code = main(
        [
            "simulate",
            "cubic:1",
            "bbr:1",
            "--mbps",
            "20",
            "--duration",
            "10",
            "--backend",
            "fluid",
            "--aqm",
            "red",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "cubic" in out and "bbr" in out


def test_simulate_with_codel_ecn(capsys):
    code = main(
        [
            "simulate",
            "cubic:1",
            "--mbps",
            "10",
            "--duration",
            "8",
            "--backend",
            "fluid",
            "--aqm",
            "codel",
            "--ecn",
        ]
    )
    assert code == 0


def test_simulate_with_capacity_trace(capsys):
    code = main(
        [
            "simulate",
            "cubic:1",
            "--mbps",
            "10",
            "--duration",
            "8",
            "--backend",
            "fluid",
            "--capacity-trace",
            "steps:2@0.5,4@1.0",
        ]
    )
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["figure", "6", "--backend", "fluid"],
        ["campaign", "run", "spec.toml", "--out", "o", "--backend", "fluid"],
        ["campaign", "resume", "out", "--backend", "fluid"],
        ["simulate", "cubic:1", "--backend", "fluid-vec"],
    ],
)
def test_fluid_implementation_is_not_a_cli_choice(argv, capsys):
    """The scalar-or-vectorized decision is the runner's, not a flag."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "--backend" in capsys.readouterr().err


def test_simulate_ecn_without_aqm_is_an_error(capsys):
    code = main(
        ["simulate", "cubic:1", "--mbps", "10", "--duration", "5", "--ecn"]
    )
    assert code == 2
    assert "bad scenario" in capsys.readouterr().err


def test_simulate_bad_capacity_trace_is_an_error(capsys):
    code = main(
        [
            "simulate",
            "cubic:1",
            "--mbps",
            "10",
            "--duration",
            "5",
            "--capacity-trace",
            "ramp:1",
        ]
    )
    assert code == 2
    assert "bad scenario" in capsys.readouterr().err


def test_campaign_run_scenario_override_freezes_spec(tmp_path, capsys):
    import json as _json

    spec = _write_smoke_spec(tmp_path)
    out_dir = tmp_path / "camp"
    code = main(
        [
            "campaign",
            "run",
            str(spec),
            "--out",
            str(out_dir),
            "--cache-dir",
            str(tmp_path / "cache"),
            "--aqm",
            "red",
        ]
    )
    assert code == 0
    frozen = _json.loads((out_dir / "spec.json").read_text())
    # The override lands in the frozen spec, so resume reruns the same
    # scenario even without the flag.
    assert frozen["spec"]["link"]["aqm"]["kind"] == "red"


REPORT_SPEC = """\
name = "cli-report"
[link]
bandwidth_mbps = 20.0
rtt_ms = 20.0
buffer_bdp = 1.5
[defaults]
duration = 4.0
backend = "fluid"
mix = "cubic:1,bbr:1"
[[axes]]
name = "aqm"
values = ["droptail", "red"]
[[axes]]
name = "backend"
values = ["fluid", "fluid-vec"]
[metrics]
columns = ["aggregate_mbps:cubic", "aggregate_mbps:bbr", "drop_rate"]
"""


def test_campaign_report_cli(tmp_path, capsys):
    spec = tmp_path / "report.toml"
    spec.write_text(REPORT_SPEC)
    out_dir = tmp_path / "camp"
    assert (
        main(
            [
                "campaign",
                "run",
                str(spec),
                "--out",
                str(out_dir),
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        == 0
    )
    code = main(
        ["campaign", "report", str(out_dir), "--reference", "fluid"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "model error" in out
    assert "wrote" in out
    assert (out_dir / "model_error.csv").exists()


def test_campaign_report_without_compare_axis(tmp_path, capsys):
    spec = _write_smoke_spec(tmp_path)
    out_dir = tmp_path / "camp"
    main(
        [
            "campaign",
            "run",
            str(spec),
            "--out",
            str(out_dir),
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
    )
    capsys.readouterr()
    assert main(["campaign", "report", str(out_dir)]) == 2
    assert "does not sweep" in capsys.readouterr().err


# -- run session: ambient state in, ambient state out ------------------------


def test_parser_surface_matches_snapshot():
    """Every (sub)command accepts exactly the options of
    ``tests/cli_options.json`` (``python -m tests.identity
    cli_options``); ``--trace-out`` is the bus JSONL flag of
    ``simulate`` alone."""
    snapshot = load("cli_options")
    assert parser_surface(build_parser()) == snapshot
    assert "--trace-out" not in snapshot["campaign run"]
    assert "--trace-out" not in snapshot["campaign resume"]


def _ambient_state():
    import os

    from repro import check
    from repro import exec as exec_
    from repro.obs import trace

    return (
        dict(os.environ),
        check.get_default(),
        trace.get_default(),
        exec_.get_default(),
    )


SESSION_COMMANDS = {
    "simulate": "simulate cubic:1 bbr:1 --mbps 20 --duration 5",
    "figure": "figure 6",
    "campaign": "campaign run SPEC --out OUT",
    "population": "population run --flows 10 --ticks 2 --duration 4",
}


@pytest.mark.parametrize("outcome", ["success", "exit2", "violation"])
@pytest.mark.parametrize("command", sorted(SESSION_COMMANDS))
def test_session_restores_ambient_state(
    command, outcome, tmp_path, monkeypatch, capsys
):
    """Whatever a checked, traced, parallel command installs — process
    defaults, REPRO_CHECK / REPRO_TRACE — is gone when main() returns,
    however it returns."""
    from repro.check import InvariantViolation
    from repro.exec import Engine
    from repro.experiments import figures

    paths = {
        "SPEC": str(_write_smoke_spec(tmp_path)),
        "OUT": str(tmp_path / "out"),
    }
    argv = [paths.get(arg, arg) for arg in SESSION_COMMANDS[command].split()]
    spans = tmp_path / "spans.json"
    if outcome == "exit2":  # An unwritable export.
        spans = tmp_path / "missing" / "spans.json"
    if outcome == "violation":

        def violate(*_args, **_kwargs):
            raise InvariantViolation("injected")

        monkeypatch.setattr(Engine, "iter_points", violate)
        monkeypatch.setitem(figures.FIGURES, "fig6", violate)

    closed = []  # jobs of each closed engine (a count; no reference).
    close = Engine.close
    monkeypatch.setattr(
        Engine, "close", lambda self: (closed.append(self.jobs), close(self))
    )
    before = _ambient_state()
    flags = ["--check", "--spans-out", str(spans), "--progress"]
    code = main(argv + flags + ["--jobs", "2"])
    assert code == {"success": 0, "exit2": 2, "violation": 1}[outcome]
    after = _ambient_state()
    assert after[0] == before[0]
    assert all(a is b for a, b in zip(after[1:], before[1:]))
    assert 2 in closed  # The engine the command built was closed.
    assert spans.exists() == (outcome == "success")
    err = capsys.readouterr().err
    if outcome == "exit2":
        assert "cannot write spans" in err
    if outcome == "violation":
        assert "invariant violation:" in err and "injected" in err


def test_session_epilogue_order(tmp_path, capsys):
    """simulate's output lines, then its --trace-out, then the
    session's --spans-out."""
    code = main(
        [
            "simulate",
            "cubic:1",
            "bbr:1",
            "--duration",
            "5",
            "--trace-out",
            str(tmp_path / "t.jsonl"),
            "--spans-out",
            str(tmp_path / "s.json"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    marks = [
        out.index("drop rate:"),
        out.index("trace records to"),
        out.index("span events to"),
    ]
    assert marks == sorted(marks)
    assert "exec:" not in out  # simulate prints no exec summary.
