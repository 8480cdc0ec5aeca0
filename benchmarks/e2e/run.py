"""The repo's end-to-end benchmark: four workloads, best-of-R over
fresh processes, per-layer metrics from a separate traced phase.

    python3 benchmarks/e2e/run.py [--seed 0] [--rounds 10] [--trace]
                                  [--quick] [--out FILE]
    python3 benchmarks/e2e/run.py --workload NAME --seed N \\
                                  --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py compare --base A.json... --new B.json...

For every round, each selected workload (fixed order, round-robin) gets
a *fresh child interpreter* (``child.py``: closed loop, one process,
``jobs=1``, one sample), bracketed by a calibration kernel.  End-to-end
numbers are medians over the rounds, times at reference machine speed;
every raw sample is kept in the record.  README.md has the definitions, the
noise findings behind the protocol, and the layer-interaction table.

The second form is the one ``BENCHMARK.json`` names: one workload,
rounds until ``--seconds`` are used up, and a last stdout line
``{"correct", "attempted", "failed", "metrics"}``.  This file imports
nothing from the program; it exits 2 when the program is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCHEMA = "repro-bench-e2e/1"

WORKLOADS = ("ne_search", "packet_aqm", "vec_grid", "warm_resume")

#: Variables that would redirect or instrument the program.
SCRUBBED_ENV = (
    "REPRO_CACHE_DIR",
    "REPRO_CHECK",
    "REPRO_TRACE",
    "REPRO_FLUID_SUBSTRATE",
    "REPRO_PROFILE_POINTS",
)

#: Bodies take 1-3 s and the longest setup ~3 s; a child still alive
#: after this is hung, not slow.
CHILD_TIMEOUT_S = 60.0
LEGS_TIMEOUT_S = 150.0

#: Untraced/traced body pairs per workload in the traced phase.
TRACE_PAIRS = 3

#: Seed-0 output digests of this machine image (python 3.11, numpy
#: 2.4): a mismatch is reported, not failed — libm/numpy builds differ.
REFERENCE_DIGESTS: Dict[str, str] = {
    "ne_search": (
        "c77892a57b01499e9761153b6da8060d87a5ce938585b61b3c680cd747e7e81f"
    ),
    "packet_aqm": (
        "9b3c23a4f5dc7dc5ccf5ea33e64c0c897a420459f8f09e4bddbb3ded6e65b426"
    ),
    "vec_grid": (
        "167ae9f72f46d91cfc85dbfa3ecdc63a4bcf534bdba480db7633209d850b0153"
    ),
    "warm_resume": (
        "a5135991e12c5aa51045663e822371550577af234ce13327c06ed7ae5f20e6c7"
    ),
}

#: ``calibrate()`` on the baseline machine in a quiet phase (2-core
#: Xeon 2.1 GHz Firecracker VM, python 3.11.7).  Times are reported at
#: this speed; the constant only fixes the unit.
CALIB_REF_S = 0.068

#: ``compare``: calibration drift between the two sets beyond which
#: every verdict is "unresolved".  Calibrated times absorb about three
#: quarters of a drift, so this much leaves an error near the bounds.
MAX_CALIB_DRIFT = 0.25


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one list of metric names, units and
    regression bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- machine ---------------------------------------------------------------


def calibrate() -> float:
    """Wall time of a fixed pure-Python kernel, sampled before and
    after every child: ``machine.calib_s``.  The machine's slow phases
    stretch interpreter-bound code by up to ~1.7x for minutes; every
    one of the four bodies tracks this kernel (r = 0.7-0.9 over
    6-round blocks) and none tracks a numpy kernel, so there is none.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    if acc < 0:
        raise RuntimeError("calibration kernel misbehaved")
    return time.perf_counter() - start


def fs_type(path: Path) -> str:
    """Filesystem type holding ``path`` (longest mount-point match)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                _dev, mount, fstype = line.split()[:3]
                if len(mount) > len(best) and (
                    str(path) == mount
                    or str(path).startswith(mount.rstrip("/") + "/")
                ):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_header(scratch: Path) -> Dict[str, Any]:
    from importlib import metadata

    status = _git("status", "--porcelain")
    return {
        "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scratch_fs": fs_type(scratch),
        "loadavg": list(os.getloadavg()),
    }


def make_scratch(choice: Optional[str]) -> Path:
    """A fresh directory for caches and campaign outputs: under
    ``choice`` when given, else on tmpfs (``/dev/shm``) so the numbers
    measure the program's path and not the sandbox's virtio disk, else
    — no writable tmpfs — under ``.bench_scratch/`` in the checkout."""
    bases = [Path(choice)] if choice else [
        Path("/dev/shm"),
        ROOT / ".bench_scratch",
    ]
    for base in bases:
        try:
            base.mkdir(parents=True, exist_ok=True)
            return Path(tempfile.mkdtemp(prefix="repro-bench-", dir=base))
        except OSError as exc:
            error = exc
    raise SystemExit(f"no writable scratch directory: {error}")


# -- one child ---------------------------------------------------------------


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(
    workload: str,
    seed: int,
    scratch: Path,
    traced: bool = False,
    quick: bool = False,
    timeout: float = CHILD_TIMEOUT_S,
    disk: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run one child to completion; never raises for a child's fault.

    Returns the sample: the child's result fields plus ``setup_s``
    (spawn -> ``ready``, measured here) and ``failure`` — None, or why
    the sample does not count (timeout, exit code, missing ``ready`` /
    result, failed output check) with the child's stderr tail.
    """
    scratch.mkdir(parents=True)
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--scratch",
        str(scratch),
    ]
    command += ["--traced"] if traced else []
    command += ["--quick"] if quick else []
    command += ["--disk", str(disk)] if disk else []
    sample: Dict[str, Any] = {"workload": workload, "traced": traced}
    got_result = False
    timed_out = threading.Event()
    stderr_path = scratch.with_suffix(".stderr")
    try:
        with open(stderr_path, "w+", encoding="utf-8") as stderr:
            start = time.perf_counter()
            # Its own session, so a kill reaches pool workers too.
            proc = subprocess.Popen(
                command,
                cwd=ROOT,
                env=child_env(),
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
                start_new_session=True,
            )

            def kill() -> None:
                timed_out.set()
                _kill_group(proc)

            watchdog = threading.Timer(timeout, kill)
            watchdog.start()
            try:
                for line in proc.stdout:
                    if line.strip() == "ready":
                        sample["setup_s"] = time.perf_counter() - start
                    elif line.startswith("result "):
                        sample.update(json.loads(line[len("result "):]))
                        got_result = True
                code = proc.wait()
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    _kill_group(proc)
                proc.wait()
                proc.stdout.close()
            stderr.seek(0)
            tail = stderr.read()[-2000:]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        stderr_path.unlink(missing_ok=True)

    failure = None
    if timed_out.is_set():
        failure = f"timeout after {timeout:g}s"
    elif code != 0:
        failure = f"exit code {code}"
    elif "setup_s" not in sample:
        failure = "no 'ready' line"
    elif not got_result:
        failure = "no result line"
    elif sample.get("errors"):
        failure = "output check: " + "; ".join(sample["errors"])
    sample["failure"] = failure
    if failure is not None:
        sample["stderr_tail"] = tail
        print(f"  {workload}: FAILED ({failure})", file=sys.stderr)
        if tail.strip():
            print(tail, file=sys.stderr)
    return sample


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# -- phases ------------------------------------------------------------------


class Bracketed:
    """``spawn`` with the calibration kernel run before and after each
    child; adjacent children share the sample between them."""

    def __init__(self) -> None:
        self.before = calibrate()

    def spawn(self, *args: Any, **kwargs: Any) -> Dict[str, Any]:
        sample = spawn(*args, **kwargs)
        after = calibrate()
        sample["calib_s"] = (self.before + after) / 2.0
        self.before = after
        return sample


def measure(
    workloads: Sequence[str],
    seed: int,
    scratch: Path,
    quick: bool,
    more: Callable[[int, float, float], bool],
) -> List[Dict[str, Any]]:
    """The untraced rounds: workloads interleaved round-robin, so a
    slow machine phase hits all of them alike.  ``more(rounds done,
    elapsed, last round's duration)`` decides whether to go on."""
    samples: List[Dict[str, Any]] = []
    children = Bracketed()
    begin = time.perf_counter()
    rounds, last = 0, 0.0
    while rounds == 0 or more(rounds, time.perf_counter() - begin, last):
        round_start = time.perf_counter()
        for workload in workloads:
            sample = children.spawn(
                workload, seed, scratch / f"{workload}-{rounds}", quick=quick
            )
            sample["round"] = rounds
            samples.append(sample)
        rounds += 1
        last = time.perf_counter() - round_start
    return samples


def trace_phase(
    workloads: Sequence[str], seed: int, scratch: Path, quick: bool
) -> List[Dict[str, Any]]:
    """Untraced and traced bodies in alternation (their ratio is the
    tracing overhead), then the isolated legs in one more child."""
    samples = []
    children = Bracketed()
    for pair in range(1 if quick else TRACE_PAIRS):
        for workload in workloads:
            for traced in (False, True):
                tag = f"{workload}-t{pair}{'t' if traced else 'u'}"
                sample = children.spawn(
                    workload, seed, scratch / tag, traced, quick=quick
                )
                sample.update(round=pair, phase="trace")
                samples.append(sample)
    # The one leg that wants the real disk (io.fsync_us) gets a
    # directory in the checkout, whatever the scratch filesystem is.
    (ROOT / ".bench_scratch").mkdir(exist_ok=True)
    disk = Path(tempfile.mkdtemp(dir=ROOT / ".bench_scratch"))
    try:
        legs = children.spawn(
            "legs",
            seed,
            scratch / "legs",
            quick=quick,
            timeout=LEGS_TIMEOUT_S,
            disk=disk,
        )
    finally:
        shutil.rmtree(disk, ignore_errors=True)
        try:
            disk.parent.rmdir()
        except OSError:
            pass  # In use as the scratch base, or by a concurrent run.
    legs.update(phase="trace", disk_fs=fs_type(disk))
    samples.append(legs)
    return samples


# -- estimators --------------------------------------------------------------


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _iqr(values: List[float]) -> float:
    q1, _q2, q3 = _quartiles(values)
    return q3 - q1


def _ops(samples: List[Dict[str, Any]]) -> Tuple[int, int]:
    """``(attempted, failed)`` operations: a failed child fails all of
    its own (a child that died before reporting them counts as 1)."""
    attempted = sum(s.get("ops", 1) for s in samples)
    failed = sum(
        s.get("ops", 1) for s in samples if s["failure"] is not None
    )
    return attempted, failed


def end_to_end(samples: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One workload's metrics from its untraced samples.

    The gating times are medians over the rounds of each sample's time
    *at reference speed*: measured seconds x ``CALIB_REF_S`` / the
    calibration kernel's seconds around that sample.  The raw minimum,
    median and IQR ride along, so "unresolved" can be told from
    "unchanged" and other estimators re-derived.
    """
    good = [s for s in samples if s["failure"] is None]
    attempted, failed = _ops(samples)
    metrics = {
        "failed_share": _metric(failed / attempted, "ratio"),
        "n": _metric(len(good), "count"),
    }
    if good:
        speed = [CALIB_REF_S / s["calib_s"] for s in good]
        walls = [s["wall_s"] for s in good]
        metrics.update(
            wall_s=_metric(
                statistics.median(w * k for w, k in zip(walls, speed)), "s"
            ),
            setup_s=_metric(
                statistics.median(
                    s["setup_s"] * k for s, k in zip(good, speed)
                ),
                "s",
            ),
            peak_rss_mb=_metric(
                statistics.median(s["rss_mb"] for s in good), "MiB"
            ),
            wall_raw_min_s=_metric(min(walls), "s"),
            wall_raw_med_s=_metric(statistics.median(walls), "s"),
            wall_raw_iqr_s=_metric(_iqr(walls), "s"),
            cpu_s=_metric(min(s["cpu_s"] for s in good), "s"),
        )
    return metrics


def layer_metrics(samples: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One workload's per-layer metrics from its traced-phase samples:
    the span table of the fastest traced body (one consistent set that
    sums to its wall), the overhead ratio, and the exact counts."""
    good = [s for s in samples if s["failure"] is None]
    traced = [s for s in good if s["traced"]]
    plain = [s for s in good if not s["traced"]]
    if not traced or not plain:
        return {}
    best = min(traced, key=lambda s: s["wall_s"])
    trace, counts = best["trace"], best["counts"]
    metrics = {}
    for layer, self_s in trace["self_s"].items():
        metrics[f"trace.{layer}.self_s"] = _metric(self_s, "s")
        metrics[f"trace.{layer}.calls"] = _metric(
            trace["calls"][layer], "count"
        )
    lookups = counts["cache_hits"] + counts["cache_misses"]
    metrics.update(
        {
            "trace.unattributed_share": _metric(
                trace["unattributed_share"], "ratio"
            ),
            "trace.overhead_ratio": _metric(
                best["wall_s"] / min(s["wall_s"] for s in plain), "ratio"
            ),
            "exec.points_simulated": _metric(counts["simulated"], "count"),
            "exec.cache_hit_ratio": _metric(
                counts["cache_hits"] / lookups if lookups else 0.0, "ratio"
            ),
            "io.fsyncs_per_unit": _metric(
                trace["fsyncs"] / counts["units"], "count"
            ),
        }
    )
    return metrics


def digest_findings(
    workload: str, samples: List[Dict[str, Any]], seed: int, quick: bool
) -> Dict[str, Any]:
    """Identical digest in every sample (any phase); and, for the
    pinned seed, whether it still matches the reference."""
    digests = sorted({s["digest"] for s in samples if "digest" in s})
    found: Dict[str, Any] = {"digests": digests}
    reference = REFERENCE_DIGESTS.get(workload)
    if seed == 0 and not quick and reference and digests:
        found["digest_matches_reference"] = digests == [reference]
    return found


# -- the record --------------------------------------------------------------


def build_record(
    args: argparse.Namespace,
    workloads: Sequence[str],
    scratch: Path,
    samples: List[Dict[str, Any]],
) -> Dict[str, Any]:
    record = machine_header(scratch)
    record.update(schema=SCHEMA, seed=args.seed, quick=args.quick)
    record["rounds"] = 1 + max(
        (s["round"] for s in samples if "phase" not in s), default=-1
    )
    record["metrics"] = {}
    record["layers"] = {}
    record["checks"] = {}
    for workload in workloads:
        mine = [s for s in samples if s["workload"] == workload]
        untraced = [s for s in mine if "phase" not in s]
        if untraced:
            record["metrics"][workload] = end_to_end(untraced)
        traced_phase = [s for s in mine if "phase" in s]
        if traced_phase:
            record["layers"][workload] = layer_metrics(traced_phase)
        record["checks"][workload] = digest_findings(
            workload, mine, args.seed, args.quick
        )
    record["absent"] = {}
    record["disk_fs"] = None
    for sample in samples:
        if sample["workload"] == "legs":
            record["layers"]["legs"] = sample.get("metrics", {})
            record["absent"].update(sample.get("absent", {}))
            record["disk_fs"] = sample["disk_fs"]
        for target, reason in sample.get("trace", {}).get(
            "missing", {}
        ).items():
            record["absent"][target] = reason
    record["layers"]["machine"] = {
        "machine.calib_s": _metric(
            statistics.median(s["calib_s"] for s in samples), "s"
        )
    }
    record["samples"] = samples
    return record


def verdict(record: Dict[str, Any]) -> Dict[str, Any]:
    """``correct`` / ``attempted`` / ``failed`` over every sample."""
    attempted, failed = _ops(record["samples"])
    stable = all(
        len(check["digests"]) == 1 for check in record["checks"].values()
    )
    return {
        "correct": failed == 0 and stable,
        "attempted": attempted,
        "failed": failed,
    }


def print_record(record: Dict[str, Any]) -> None:
    print(
        f"# {record['date']} commit={record['commit']} "
        f"dirty={record['dirty']} {record['machine']} "
        f"x{record['cpu_count']} py{record['python']} "
        f"numpy{record['numpy']} scratch={record['scratch_fs']} "
        f"disk={record['disk_fs']} "
        f"seed={record['seed']} rounds={record['rounds']}"
    )
    for workload, metrics in record["metrics"].items():
        for name, metric in metrics.items():
            print(
                f"{workload}/{name} = {metric['value']:.6g} "
                f"{metric['unit']}"
            )
    for group, metrics in record["layers"].items():
        for name, metric in metrics.items():
            print(
                f"{group}: {name} = {metric['value']:.6g} {metric['unit']}"
            )
    for name, reason in record["absent"].items():
        print(f"absent: {name}: {reason}")
    for workload, check in record["checks"].items():
        print(f"check: {workload}: {check}")


def contract_line(
    record: Dict[str, Any], workload: str, trace: bool
) -> Dict[str, Any]:
    """The last stdout line ``BENCHMARK.json``'s consumer reads: every
    end-to-end metric (``--trace 0``) or every per-layer one
    (``--trace 1``; a metric whose layer is gone reads 0 and is listed
    under ``absent`` in the record)."""
    contract = load_contract()
    line = verdict(record)
    if trace:
        found: Dict[str, Any] = {}
        for group in (workload, "legs", "machine"):
            found.update(record["layers"].get(group, {}))
        metrics = {
            spec["name"]: found.get(
                spec["name"], _metric(0.0, spec["unit"])
            )
            for spec in contract["per_layer"]
        }
    else:
        found = record["metrics"][workload]
        metrics = {
            spec["name"]: found[spec["name"]]
            for spec in contract["end_to_end"]
            if spec["name"] in found
        }
        if len(metrics) != len(contract["end_to_end"]):
            line["correct"] = False
    line["metrics"] = metrics
    return line


# -- compare -----------------------------------------------------------------


def compare(base_files: List[str], new_files: List[str]) -> int:
    """Per (workload, metric): medians, quartiles, ratio with its
    base, and a verdict by the bounds in ``BENCHMARK.json``."""
    sets = []
    for files in (base_files, new_files):
        records = []
        for name in files:
            with open(name, encoding="utf-8") as handle:
                records.append(json.load(handle))
        sets.append(records)
    bounds = {
        spec["name"]: spec["bound"]
        for spec in load_contract()["end_to_end"]
    }
    bounds["failed_share"] = 0.0
    calib = [
        statistics.median(
            r["layers"]["machine"]["machine.calib_s"]["value"]
            for r in records
        )
        for records in sets
    ]
    drift = abs(calib[1] / calib[0] - 1.0)
    print(
        f"machine.calib_s base={calib[0]:.4f} new={calib[1]:.4f} "
        f"drift={drift:.1%}"
        + (" -> machine drift" if drift > MAX_CALIB_DRIFT else "")
    )
    print(
        "workload/metric  base med [q1,q3] n | new med [q1,q3] n | "
        "new/base | verdict"
    )
    worse = 0
    for workload in sets[0][0]["metrics"]:
        for name, bound in bounds.items():
            columns = []
            for records in sets:
                columns.append(
                    [
                        r["metrics"][workload][name]["value"]
                        for r in records
                        if name in r["metrics"].get(workload, {})
                    ]
                )
            if not columns[0] or not columns[1]:
                continue
            word, text = _judge(
                columns[0], columns[1], bound, drift > MAX_CALIB_DRIFT
            )
            worse += word == "worse"
            print(f"{workload}/{name}  {text} | {word}")
    return 1 if worse else 0


def _judge(
    base: List[float], new: List[float], bound: float, drifted: bool
) -> Tuple[str, str]:
    """All gating metrics are lower-is-better."""
    stats = []
    for values in (base, new):
        q1, _q2, q3 = _quartiles(values)
        stats.append((statistics.median(values), q1, q3, len(values)))
    text = " | ".join(
        f"{med:.4g} [{q1:.4g},{q3:.4g}] n={n}" for med, q1, q3, n in stats
    )
    (base_med, base_q1, base_q3, _), (new_med, new_q1, new_q3, _) = stats
    if base_med == 0.0:
        # failed_share: any increase is a regression.
        word = "worse" if new_med > 0.0 else "unchanged"
        return word, f"{text} | -"
    ratio = new_med / base_med
    text += f" | {ratio:.3f}x of {base_med:.4g}"
    spread = max(
        (base_q3 - base_q1) / base_med, (new_q3 - new_q1) / new_med
    )
    if drifted or spread > bound:
        # Too noisy to resolve — unless the sets do not even overlap.
        word = "better" if max(new) < min(base) else "unresolved"
    elif ratio - 1.0 > bound:
        word = "worse"
    elif base_med - new_med > max(base_q3 - base_q1, 0.0) and (
        max(new) < min(base)
    ):
        word = "better"
    else:
        word = "unchanged"
    return word, text


# -- entry -------------------------------------------------------------------


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"{ROOT}/src/repro: the program is not here; nothing to "
            "measure",
            file=sys.stderr,
        )
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    single = args.workload is not None

    def more(rounds: int, elapsed: float, last: float) -> bool:
        if args.quick:
            return False
        if args.seconds is not None:
            return elapsed + last <= args.seconds * len(workloads)
        return rounds < args.rounds

    scratch = make_scratch(args.scratch)
    # SIGTERM must unwind like Ctrl-C so the scratch tree is removed
    # and the running child killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        samples: List[Dict[str, Any]] = []
        # The contract's --trace 1 run reports per-layer metrics only,
        # so it skips the untraced rounds.
        if not (single and args.trace):
            samples += measure(
                workloads, args.seed, scratch, args.quick, more
            )
        if args.trace:
            samples += trace_phase(
                workloads, args.seed, scratch, args.quick
            )
        record = build_record(args, workloads, scratch, samples)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print_record(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    line = verdict(record)
    if single:
        line = contract_line(record, args.workload, bool(args.trace))
    print(json.dumps(line))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("--base", nargs="+", required=True)
        parser.add_argument("--new", nargs="+", required=True)
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.new)
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    stop = parser.add_mutually_exclusive_group()
    stop.add_argument("--rounds", type=int, default=10)
    stop.add_argument(
        "--seconds",
        type=float,
        help="keep starting rounds while they fit in this many seconds "
        "per workload",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="also (with --workload: only) run the traced phase",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one round, bodies shrunk ~10x, all output checks on",
    )
    parser.add_argument("--out", help="write the full record here")
    parser.add_argument(
        "--scratch",
        help="directory for caches and campaign outputs (default: "
        "/dev/shm, else .bench_scratch/ in the checkout)",
    )
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
