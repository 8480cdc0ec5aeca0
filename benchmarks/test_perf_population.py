"""Population-dynamics hot path: oracle-served ticks per second.

The adoption loop's cost model is "tier 0 is nearly free": a tick asks
the tiered oracle for payoffs, and on the model tier the answer is an
in-process memo hit or one ~13 us closed-form evaluation.  This
benchmark drives a paper-scale cell (100 flows) under replicator
dynamics with the oracle pinned to tier 0 and appends the achieved
ticks/second to ``BENCH_population.json`` at the repo root.  When the
file already holds records from the same machine, the run must stay
within ``REGRESSION_SLACK`` of the recorded median; a collapse means a
simulation or a disk round-trip landed on the per-tick path.
"""

import json
import pathlib
import platform
import time

from repro.exec import Engine
from repro.population import (
    CellSpec,
    DynamicsConfig,
    TieredOracle,
    run_population,
)
from repro.util.config import LinkConfig

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "BENCH_population.json"
)

#: Tolerated slowdown vs the recorded median rate on this machine.
REGRESSION_SLACK = 0.05

#: Any machine should clear this many tier-0 ticks/s on one cell; an
#: order-of-magnitude collapse means per-tick work stopped being a
#: memo lookup.
ABSOLUTE_FLOOR_TICKS_PER_S = 20

TICKS = 60
FLOWS = 100


def _cell():
    return CellSpec(
        link=LinkConfig.from_mbps_ms(100, 40, 10),
        n_flows=FLOWS,
        label="bench",
    )


def _run(engine=None, seed=0):
    return run_population(
        [_cell()],
        dynamics=DynamicsConfig(name="replicator", step=0.5),
        ticks=TICKS,
        seed=seed,
        oracle=TieredOracle(engine=engine, force_tier=0),
    )


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _measure_ticks_per_s():
    """Best-of-5 CPU-time rate, in oracle-served ticks per second.

    ``process_time`` (not wall clock) so co-tenant load on a shared
    runner cannot masquerade as a regression; best-of so one-sided
    scheduler noise is discarded.
    """
    _run()  # Warm numpy and the model's import-time caches.
    best_elapsed = float("inf")
    for _ in range(5):
        start = time.process_time()
        _run()
        best_elapsed = min(best_elapsed, time.process_time() - start)
    return round(TICKS / best_elapsed, 1)


def _append_record(entry):
    records = (
        json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else []
    )
    records.append(entry)
    BENCH_PATH.write_text(json.dumps(records, indent=2) + "\n")


def test_population_tick_rate_trajectory():
    """Record ticks/s and guard against regression.

    The measured rate is compared against the *median* of this
    machine's prior records, and a below-threshold reading is
    re-measured before it counts: a genuine structural slowdown fails
    every remeasure, while a noise spike clears on retry.
    """
    rate = _measure_ticks_per_s()

    machine = platform.machine()
    prior = []
    if BENCH_PATH.exists():
        prior = [
            record
            for record in json.loads(BENCH_PATH.read_text())
            if record.get("machine") == machine
        ]
    _append_record(
        {
            "date": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "machine": machine,
            "ticks": TICKS,
            "flows": FLOWS,
            "ticks_per_s": rate,
        }
    )

    assert rate > ABSOLUTE_FLOOR_TICKS_PER_S, rate
    history = [
        record["ticks_per_s"]
        for record in prior
        if "ticks_per_s" in record
    ]
    if history:
        threshold = (1.0 - REGRESSION_SLACK) * _median(history)
        for _ in range(3):  # Re-measure: noise clears, regressions don't.
            if rate >= threshold:
                break
            rate = _measure_ticks_per_s()
        assert rate >= threshold, (
            f"{rate} ticks/s is more than {REGRESSION_SLACK:.0%} below "
            f"the recorded median {_median(history)}"
        )


def test_deterministic_across_engines():
    """The benchmark scenario itself honors the determinism contract."""
    cold = _run(seed=7)
    warm = _run(engine=Engine(jobs=4), seed=7)
    assert cold.final_shares == warm.final_shares
