"""Smoke test of the end-to-end benchmark (outside ``testpaths``; run
it as ``python -m pytest benchmarks/e2e/test_e2e_smoke.py``).

Runs ``run.py --quick --trace`` once (< 30 s) and checks the record's
schema and that the metric and workload names are exactly the ones
``BENCHMARK.json`` declares.  It asserts no timing.
"""

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

RECORD_KEYS = {
    "schema",
    "date",
    "commit",
    "dirty",
    "machine",
    "cpu_count",
    "python",
    "numpy",
    "scratch_fs",
    "disk_fs",
    "loadavg",
    "seed",
    "rounds",
    "quick",
    "metrics",
    "layers",
    "checks",
    "absent",
    "samples",
}


@pytest.fixture(scope="module")
def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "record.json"
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--quick",
            "--trace",
            "--seed",
            "1",
            "--out",
            str(out),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done, json.loads(out.read_text())


def test_quick_run_is_correct(quick_run):
    done, record = quick_run
    line = json.loads(done.stdout.splitlines()[-1])
    assert line["correct"] is True, done.stderr
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert not [s for s in record["samples"] if s["failure"]]


def test_record_schema(quick_run):
    _done, record = quick_run
    assert set(record) == RECORD_KEYS
    assert record["schema"] == "repro-bench-e2e/1"
    assert record["quick"] is True and record["rounds"] == 1
    for group in list(record["metrics"].values()) + list(
        record["layers"].values()
    ):
        for metric in group.values():
            assert set(metric) == {"value", "unit"}
            assert isinstance(metric["value"], (int, float))


def test_names_match_benchmark_json(quick_run, contract):
    _done, record = quick_run
    workloads = [w["name"] for w in contract["workloads"]]
    assert list(record["metrics"]) == workloads
    gating = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    for workload in workloads:
        found = record["metrics"][workload]
        assert found["failed_share"]["value"] == 0.0
        for name, unit in gating.items():
            assert found[name]["unit"] == unit, (workload, name)
            assert found[name]["value"] > 0.0
    declared = {m["name"]: m["unit"] for m in contract["per_layer"]}
    shared = dict(record["layers"]["legs"])
    shared.update(record["layers"]["machine"])
    for workload in workloads:
        found = dict(record["layers"][workload])
        found.update(shared)
        # A layer a later change removed is listed under "absent" and
        # its metrics are missing here; nothing undeclared may appear.
        assert set(found) <= set(declared), workload
        if not record["absent"]:
            assert set(found) == set(declared), workload
        for name, metric in found.items():
            assert metric["unit"] == declared[name], name


def test_layers_sum_to_the_traced_wall(quick_run):
    _done, record = quick_run
    for workload, layers in record["layers"].items():
        if workload in ("legs", "machine"):
            continue
        assert abs(layers["trace.unattributed_share"]["value"]) <= 0.02


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    (bare / "benchmarks").mkdir(parents=True)
    for name in ("run.py", "child.py"):
        target = bare / "benchmarks" / "e2e" / name
        target.parent.mkdir(exist_ok=True)
        target.write_text((HERE / name).read_text())
    (bare / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text()
    )
    done = subprocess.run(
        [
            sys.executable,
            str(bare / "benchmarks" / "e2e" / "run.py"),
            "--workload",
            "ne_search",
            "--seed",
            "0",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
