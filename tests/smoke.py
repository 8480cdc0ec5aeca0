"""The CLI smoke sequences, one command: ``python -m tests.smoke``.

The tier-1 suite covers the library in-process; these sequences cover
what only whole processes show.  Each drives the ``repro-bbr`` CLI (or
the e2e benchmark) the way a user does, in its own temporary
directory, and checks exit codes, printed summaries and the bytes of
what it wrote: real worker pools, a campaign killed and resumed across
process exits, sanitized and traced figure-9 runs, and the figure
writer against the checked-in ``results/``.

Run it from anywhere; it takes no options and sets ``PYTHONPATH`` for
the processes it starts.  It prints each sequence with its wall time
and exits 1 naming every sequence that failed.
"""

import csv
import filecmp
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPECS = ROOT / "examples" / "campaigns"
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ),
}
#: Every flag ``cli.run_session`` handles but the exports.
SESSION = (
    "--jobs 2 --cache-dir cache --check --progress --profile-points 2"
).split()
EXEC = re.compile(r"exec: (\d+) points, (\d+) cache hits, (\d+) simulated")
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]


def run(work, argv, code=0, env=None):
    """Run ``argv`` in ``work``; the finished process, whose exit
    status must be ``code``."""
    done = subprocess.run(
        [str(arg) for arg in argv],
        cwd=work,
        env={**ENV, **(env or {})},
        capture_output=True,
        text=True,
    )
    if done.returncode != code:
        tail = "\n".join((done.stdout + done.stderr).splitlines()[-15:])
        raise AssertionError(
            f"`{' '.join(map(str, argv))}` exited {done.returncode}, "
            f"expected {code}:\n{tail}"
        )
    return done


def cli(work, *args, code=0, env=None):
    """``repro-bbr *args`` in ``work``; its stdout."""
    argv = [sys.executable, "-m", "repro.cli", *args]
    return run(work, argv, code, env).stdout


def exec_summary(text):
    """``(points, cache hits, simulated)`` from a command's output."""
    return tuple(map(int, EXEC.search(text).groups()))


def same_bytes(a, b, names):
    for name in names:
        assert filecmp.cmp(a / name, b / name, shallow=False), (
            f"{a / name} and {b / name} differ"
        )


def journaled(out):
    """The unit records of a campaign's journal."""
    lines = (out / "journal.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines[1:]]


def csv_rows(path):
    """A CSV's data rows, as dicts."""
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def status(work, out):
    return json.loads(cli(work, "campaign", "status", out, "--json"))


# -- campaigns killed and resumed --------------------------------------------


def kill_and_resume(work, spec, stops, flags=(), env=None, tear=0):
    """Run ``spec`` (TOML text) three ways and require the same bytes:
    cold in a cache of its own; killed by ``--stop-after`` at each of
    ``stops`` (the partial CSV torn by ``tear`` bytes after the first
    stop) then resumed; and warm over the killed run's cache, which
    must simulate nothing.  Returns the resume's output."""
    (work / "spec.toml").write_text(spec)
    cli(work, "campaign", "validate", "spec.toml")
    first = ["campaign", "run", "spec.toml", *flags]
    cli(work, *first, "--out", "ref", "--cache-dir", "ref-cache", env=env)

    killed = work / "killed"
    resume = ["campaign", "resume", killed, "--cache-dir", "cache", *flags]
    kill = ["--out", killed, "--cache-dir", "cache", "--stop-after", stops[0]]
    cli(work, *first, *kill, code=3, env=env)
    records = journaled(killed)
    # The streamed CSV holds exactly the journaled rows; no manifest
    # until the campaign completes.
    assert len(csv_rows(killed / "results.csv")) == sum(
        len(record["rows"]) for record in records
    )
    assert not (killed / "manifest.json").exists()
    text = cli(work, "campaign", "status", killed)
    found = status(work, killed)
    total = found["units"]["total"]
    assert "(resumable)" in text, text
    assert f"units: {len(records)}/{total} completed" in text, text
    # The observers' contract under the rate-limited sidecar: the exit
    # write happened, and done is the journal's count.
    assert found["units"]["done"] == len(records) == stops[0], found
    assert found["live"] is True, found
    progress = json.loads((killed / "progress.json").read_text())
    assert progress["done"] == len(records), progress

    if tear:  # The window between the journal fsync and the CSV flush.
        with open(killed / "results.csv", "r+b") as handle:
            handle.truncate(handle.seek(0, os.SEEK_END) - tear)
    for stop in stops[1:]:
        cli(work, *resume, "--stop-after", stop, code=3, env=env)
    done = len(journaled(killed))
    resumed = cli(work, *resume, env=env)
    assert f"{done} from journal, {total - done} executed" in resumed
    assert "(complete)" in cli(work, "campaign", "status", killed)
    progress = json.loads((killed / "progress.json").read_text())
    assert progress["done"] == progress["total"] == total, progress

    warm = cli(work, *first, "--out", "warm", "--cache-dir", "cache", env=env)
    assert exec_summary(warm)[2] == 0, warm
    outputs = [
        name
        for name in ("results.csv", "results.jsonl", "error_map.json")
        if (work / "ref" / name).exists()
    ]
    same_bytes(work / "ref", killed, outputs)
    same_bytes(work / "ref", work / "warm", outputs)
    return resumed


SWEEP = """
name = "smoke-sweep"

[link]
bandwidth_mbps = 20.0
rtt_ms = 20.0

[defaults]
duration = 6.0
backend = "fluid"
mix = "cubic:1,bbr:1"

[[axes]]
name = "buffer_bdp"
values = [1, 2, 3, 4, 5, 6, 8, 10]
"""


def sweep_kill_and_resume(work):
    resumed = kill_and_resume(work, SWEEP, [4])
    # Only the missing half is simulated, and none of it twice.
    assert exec_summary(resumed) == (4, 0, 4), resumed


def streaming_sink_survives_a_torn_row(work):
    spec = SWEEP.replace("[1, 2, 3, 4, 5, 6, 8, 10]", "[0.5, 1, 2, 3, 4, 6]")
    spec += '\n[output]\ncsv = "results.csv"\njsonl = "results.jsonl"\n'
    kill_and_resume(work, spec, [2, 2], tear=7)
    assert (work / "ref" / "results.jsonl").exists()


POPULATION = """
name = "smoke-population"

[link]
bandwidth_mbps = 100.0
rtt_ms = 40.0

[defaults]
duration = 6.0
backend = "fluid"
seed = 0

[[axes]]
name = "buffer_bdp"
values = [0.5, 5]

[[axes]]
name = "dynamics"
values = ["replicator", "best-response"]

[[stages]]
name = "adopt"
type = "population"
flows = 40
challenger = "bbr"
incumbent = "cubic"
ticks = 6
error_threshold = 0.1
"""


def population_kill_and_resume(work):
    kill_and_resume(work, POPULATION, [2], flags=["--check"])
    regions = json.loads((work / "ref" / "error_map.json").read_text())
    assert regions["regions"]["100mbps|40ms|0.5bdp|n40"]["tier"] == 1
    rows = csv_rows(work / "ref" / "results.csv")
    assert any(
        float(row["buffer_bdp"]) == 0.5 and int(row["oracle_tier1"]) > 0
        for row in rows
    ), rows


AQM = """
name = "smoke-aqm"

[link]
bandwidth_mbps = 20.0
rtt_ms = 20.0
buffer_bdp = 2.0

[defaults]
duration = 6.0
backend = "fluid"
mix = "cubic:1,bbr:1"

[[axes]]
name = "aqm"
values = ["droptail", "red", "codel"]

[[axes]]
name = "backend"
values = ["fluid", "packet"]

[metrics]
columns = ["aggregate_mbps:cubic", "aggregate_mbps:bbr", "drop_rate"]
"""


def sanitized_aqm_kill_and_resume(work):
    kill_and_resume(
        work, AQM, [3], flags=["--check"], env={"REPRO_CHECK": "1"}
    )
    cli(work, "campaign", "report", "ref")
    rows = csv_rows(work / "ref" / "model_error.csv")
    assert {row["aqm"] for row in rows} == {"droptail", "red", "codel"}
    assert all(0.0 <= float(row["model_error"]) <= 1.0 for row in rows)


# -- whole commands ----------------------------------------------------------


def bad_input_exits_2(work):
    """Every bundled spec validates; a bad one, and a game start outside
    the game, are one ``bad ...:`` line and exit 2 before any
    simulation."""
    for spec in sorted(SPECS.glob("*.toml")):
        cli(work, "campaign", "validate", spec)
    bad = re.sub(
        r"^backend = .*$",
        'loss_mode = "bogus"',
        (SPECS / "fig9-ne-quick.toml").read_text(),
        flags=re.MULTILINE,
    )
    assert 'loss_mode = "bogus"' in bad
    (work / "bad.toml").write_text(bad)
    argv = [sys.executable, "-m", "repro.cli"]
    done = run(work, argv + ["campaign", "validate", "bad.toml"], code=2)
    assert "loss_mode" in done.stderr, done.stderr
    evolve = ["evolve", "--flows", "4", "--duration", "5", "--start", "9"]
    done = run(work, argv + evolve, code=2)
    assert done.stderr.startswith("bad scenario: "), done.stderr


def session_flags_on_every_command(work):
    """Every simulating command takes every session flag at once, and
    its exports read back."""
    spec = SWEEP.replace("[1, 2, 3, 4, 5, 6, 8, 10]", "[1, 2, 4, 8]")
    (work / "spec.toml").write_text(spec)
    commands = {
        "sim": "simulate cubic:1 bbr:1 --duration 20",
        "fig": "figure 8",
        "pop": "population run --flows 40 --buffer-bdp 0.5 --duration 6 "
        "--ticks 4",
        "camp": "campaign run spec.toml --out campaign",
    }
    for name, command in commands.items():
        exports = ["--spans-out", f"{name}-s.json"]
        if name in ("sim", "fig"):
            exports += ["--profile", "--trace-out", f"{name}-t.jsonl"]
        cli(work, *command.split(), *SESSION, *exports)
        cli(work, "trace", "report", f"{name}-s.json")
        if name in ("sim", "fig"):
            cli(work, "report", f"{name}-t.jsonl")


def figure_answers_from_cache(work):
    """A warm ``--jobs 2`` figure answers from the cache and writes the
    same CSVs."""
    figure = "figure 8 --jobs 2 --cache-dir cache --csv-dir".split()
    for out in ("cold", "warm"):
        text = cli(work, *figure, out)
    points, hits, _ = exec_summary(text)
    assert points > 0 and hits >= 0.9 * points, text
    names = sorted(p.name for p in (work / "cold").iterdir())
    assert names == sorted(p.name for p in (work / "warm").iterdir())
    same_bytes(work / "cold", work / "warm", names)


def fig9_campaign_sanitized_and_traced(work):
    """The figure-9 quick panel, once under the sanitizer (scalar
    loop) and once traced (vectorized rounds on two workers): zero
    violations, the same CSV bytes, and a trace that shows it."""
    run_ = ["campaign", "run", SPECS / "fig9-ne-quick.toml", "--jobs", "2"]
    checked = ["--out", "checked", "--check"]
    cli(work, *run_, *checked, env={"REPRO_CHECK": "1"})
    traced = "--out traced --spans-out trace.json --progress".split()
    cli(work, *run_, *traced)
    same_bytes(work / "checked", work / "traced", ["results.csv"])

    data = json.loads((work / "trace.json").read_text())
    assert data["displayTimeUnit"] == "ms"
    events = data["traceEvents"]
    assert {event["ph"] for event in events} <= {"M", "X"}
    spans = [event for event in events if event["ph"] == "X"]
    names = {span["name"] for span in spans}
    missing = {"campaign", "stage", "round", "point_batch"} - names
    assert not missing, f"missing spans: {missing}"

    def pids(name):
        return {span["pid"] for span in spans if span["name"] == name}

    # One round span per engine batch in the parent; each wide round a
    # point_batch per worker.
    assert pids("round") == pids("campaign")
    assert len(pids("point_batch") - pids("campaign")) >= 2

    cli(work, "trace", "report", "trace.json")
    assert "14/14" in cli(work, "top", "traced", "--once")
    found = status(work, "traced")
    assert found["state"] == "complete" and found["eta_s"] == 0.0
    assert found["units"] == {"done": 14, "total": 14, "remaining": 0}


def population_runs_converge_and_escalate(work):
    population = ["population", "run", "--check"]
    cli(work, *population, *"--flows 100 --ticks 60 --tier 0 --out ne".split())
    summary = json.loads((work / "ne" / "summary.json").read_text())
    final = summary["final_share"]["bbr"]
    assert abs(final - summary["ne"][0]["share_sync"]) <= 0.02, summary

    shallow = "--flows 40 --buffer-bdp 0.5 --duration 6 --ticks 4"
    text = cli(work, *population, *shallow.split(), "--out", "shallow")
    region = "100mbps|40ms|0.5bdp|n40"
    assert f"escalated regions: {region}" in text, text
    summary = json.loads((work / "shallow" / "summary.json").read_text())
    assert summary["oracle"]["tier1"] > 0, summary["oracle"]
    errors = json.loads((work / "shallow" / "error_map.json").read_text())
    entry = errors["regions"][region]
    assert entry["tier"] == 1 and entry["rel_error"] > 0.1, entry


def e2e_benchmark(work):
    """The repo benchmark's quick run, ``vec_grid`` as one vectorized
    batch (a re-split batch fails here), and its own smoke test."""
    bench = [sys.executable, ROOT / "benchmarks" / "e2e" / "run.py"]
    done = run(ROOT, bench + ["--quick"])
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
    done = run(ROOT, bench + "--quick --workload vec_grid --trace 1".split())
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    calls = {
        layer: metrics[f"trace.fluidsim.{layer}.calls"]["value"]
        for layer in ("vec", "scalar")
    }
    assert calls == {"vec": 1, "scalar": 0}, calls
    run(ROOT, PYTEST + [ROOT / "benchmarks" / "e2e" / "test_e2e_smoke.py"])


#: The quick figures ``tests.smoke`` regenerates and compares byte for
#: byte with ``results/`` (1, 3, 9 and 10 take minutes each).
FIGURES = ("04", "05", "06", "07", "08", "11", "12")


def figures_match_results(work):
    """``results/`` is the code's output: the same writer
    (``benchmarks/conftest.py``'s ``save_figure``) regenerates these
    figures into ``work`` byte for byte."""
    tests = [
        path
        for number in FIGURES
        for path in (ROOT / "benchmarks").glob(f"test_fig{number}_*.py")
    ]
    assert len(tests) == len(FIGURES)
    pytest = PYTEST + ["--benchmark-disable", *tests]
    run(ROOT, pytest, env={"REPRO_RESULTS_DIR": str(work)})
    written = sorted(p.name for p in work.iterdir())
    assert len(written) >= 2 * len(FIGURES), written
    same_bytes(work, ROOT / "results", written)


SEQUENCES = [
    bad_input_exits_2,
    session_flags_on_every_command,
    figure_answers_from_cache,
    sweep_kill_and_resume,
    streaming_sink_survives_a_torn_row,
    population_kill_and_resume,
    sanitized_aqm_kill_and_resume,
    population_runs_converge_and_escalate,
    fig9_campaign_sanitized_and_traced,
    e2e_benchmark,
    figures_match_results,
]


def main():
    if not __debug__:
        sys.exit("tests.smoke checks with assert: run it without -O")
    failed = []
    start = time.perf_counter()
    for sequence in SEQUENCES:
        began = time.perf_counter()
        with tempfile.TemporaryDirectory() as work:
            try:
                sequence(Path(work))
            except Exception:  # Report it, run the next one.
                failed.append(sequence.__name__)
                trace = traceback.format_exc()
                print(f"FAILED {sequence.__name__}\n{trace}", flush=True)
                continue
        print(
            f"ok {sequence.__name__} ({time.perf_counter() - began:.1f} s)",
            flush=True,
        )
    wall = time.perf_counter() - start
    if failed:
        print(f"smoke: {len(failed)} failed in {wall:.0f} s: {failed}")
        return 1
    print(f"smoke: {len(SEQUENCES)} sequences passed in {wall:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
