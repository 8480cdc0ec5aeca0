"""One sample in a fresh interpreter — what a ``repro-bbr`` user pays.

Spawned by ``run.py`` with a scrubbed environment and ``PYTHONPATH``
pointing at the program.  Protocol on stdout:

1. import the program, build the workload's inputs from ``--seed`` and
   do any populate step, then print ``ready`` (the parent times spawn
   -> ``ready`` as ``setup_s``);
2. run the body once, timed with ``perf_counter``;
3. check its outputs;
4. print ``result <json>``: wall, CPU (self + children), peak RSS
   (max of self / children), counts, digest, check errors — and, under
   ``--traced``, the per-layer span table.

``--workload legs`` runs the isolated legs instead of a body
(``--disk`` names the real-disk directory of the fsync leg).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict

#: Share of the traced body's wall that may lie outside every span.
MAX_UNATTRIBUTED = 0.02


def _cpu_s() -> float:
    times = os.times()
    return (
        times.user
        + times.system
        + times.children_user
        + times.children_system
    )


def _peak_rss_mb() -> float:
    peak_kb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return peak_kb / 1024.0


def _emit(result: Dict[str, Any]) -> None:
    print("result " + json.dumps(result), flush=True)


def run_legs(args: argparse.Namespace) -> None:
    from legs import Legs

    legs = Legs(
        args.seed, Path(args.scratch), Path(args.disk), args.quick
    )
    print("ready", flush=True)
    _emit(legs.run())


def run_workload(args: argparse.Namespace) -> None:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](
        args.seed, Path(args.scratch), args.quick
    )
    tracer = None
    if args.traced:
        import spans

        tracer = spans.install()
    print("ready", flush=True)

    cpu_start = _cpu_s()
    start = perf_counter()
    workload.body()
    wall = perf_counter() - start
    cpu = _cpu_s() - cpu_start

    result = workload.check()
    result.update(
        wall_s=wall, cpu_s=cpu, rss_mb=_peak_rss_mb(), ops=workload.ops
    )
    if tracer is not None:
        table = tracer.layer_table()
        unattributed = 1.0 - table["covered_s"] / wall
        if abs(unattributed) > MAX_UNATTRIBUTED:
            result["errors"].append(
                f"layer self-times miss the traced wall by "
                f"{unattributed:.1%}"
            )
        result["trace"] = {
            "self_s": table["self_s"],
            "calls": table["calls"],
            "fsyncs": tracer.calls.get("os:fsync", 0),
            "unattributed_share": unattributed,
            "spans": len(tracer.spans),
            "missing": tracer.missing,
        }
    _emit(result)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--disk", help="legs only: a real-disk directory")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if args.workload == "legs":
        run_legs(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
