"""The four end-to-end workloads (names are permanent).

Each workload is a class whose constructor builds every input from the
benchmark seed (and does any populate step — that is the workload's
``setup_s``), whose ``body()`` is the one timed call, and whose
``check()`` validates what the body produced and returns a digest of
it.  The program receives only the generated inputs, never the seed's
meaning; sizes are chosen so a body takes 1-1.5 s here and so the amount
of work does not depend on the seed (see README.md, "Seeds").

Imported only by ``child.py``: this module imports ``repro`` at the
top, which is part of what ``setup_s`` measures.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from pathlib import Path
from typing import Any, Dict, List

from repro.campaign import parse_spec, run_campaign
from repro.exec import Engine, ResultCache, ScenarioPoint
from repro.scenario import BottleneckSpec

#: Relative slack on "throughput sums <= capacity": the packet
#: substrate bins deliveries into 0.1 s bins, so a measurement window
#: of a few seconds can gain one bin (4 % of the quick mode's 2.5 s);
#: the fluid solver carries a small conservation tolerance.
CAPACITY_SLACK = 0.05


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _results_digest(results: List[Any]) -> str:
    encoded = json.dumps(
        [result.to_dict() for result in results], sort_keys=True
    )
    return _sha(encoded.encode("utf-8"))


def _capacity_errors(points: List[Any], results: List[Any]) -> List[str]:
    errors = []
    for i, (point, result) in enumerate(zip(points, results)):
        total = sum(result.aggregate.values())
        limit = point.link.capacity * (1.0 + CAPACITY_SLACK)
        if not 0.0 < total <= limit:
            errors.append(
                f"point {i}: aggregate {total:.0f} B/s outside "
                f"(0, {limit:.0f}]"
            )
    return errors


def _engine_counts(engines: List[Engine]) -> Dict[str, int]:
    return {
        key: sum(engine.stats[key] for engine in engines)
        for key in ("simulated", "cache_hits", "cache_misses")
    }


class NeSearch:
    """The headline: a reduced figure-9 NE search, solo scalar-fluid
    points, no cache.  ``fluidsim.flows/core`` + ``cc.laws`` do ~95 %
    of the work; campaign/exec almost none."""

    name = "ne_search"
    flows = 10
    #: One 2-BDP search: the mixed NE (8-9 BBR of 10) sits far enough
    #: from the bisection's decision points that 45 of 46 surveyed
    #: seeds evaluate the same 7 distributions.  At >= 3 BDP, or with
    #: 30-45 s flows, the path and the point count (4-8) flip with the
    #: seed, and so would the wall time.
    buffers = (2,)

    def __init__(self, seed: int, scratch: Path, quick: bool) -> None:
        self.spec = parse_spec(
            {
                "name": "bench-ne-search",
                "link": {
                    "bandwidth_mbps": 100.0,
                    "rtt_ms": 40.0,
                    "buffer_bdp": 1.0,
                },
                "defaults": {
                    "duration": 6.0 if quick else 60.0,
                    "backend": "fluid",
                    "trials": 1,
                    "seed": seed,
                },
                "axes": [
                    {"name": "buffer_bdp", "values": list(self.buffers)}
                ],
                "stages": [
                    {
                        "name": "ne",
                        "type": "adaptive",
                        "flows": self.flows,
                        "searches": 1,
                    }
                ],
            },
            source=self.name,
        )
        self.out = scratch / "out"
        self.units = len(self.buffers)
        self.ops = 1 + self.units

    def body(self) -> None:
        self.engine = Engine(jobs=1)
        self.summary = run_campaign(self.spec, self.out, engine=self.engine)

    def check(self) -> Dict[str, Any]:
        errors = []
        raw = self.summary.csv_path.read_bytes()
        rows = list(csv.DictReader(raw.decode("utf-8").splitlines()))
        for row in rows:
            k, rest = int(row["ne_challenger"]), int(row["ne_incumbent"])
            if not (0 <= k <= self.flows and k + rest == self.flows):
                errors.append(f"NE counts out of range: {row}")
        if self.summary.executed != self.units:
            errors.append(f"executed {self.summary.executed} units")
        counts = _engine_counts([self.engine])
        counts["units"] = self.units
        return {"digest": _sha(raw), "counts": counts, "errors": errors}


class _EnginePoints:
    """Body and check shared by the two ``Engine.run_points`` workloads:
    subclasses build ``self.points``."""

    points: List[ScenarioPoint]

    @property
    def units(self) -> int:
        return len(self.points)

    @property
    def ops(self) -> int:
        return 1 + self.units

    def body(self) -> None:
        self.engine = Engine(jobs=1)
        self.results = self.engine.run_points(self.points)

    def check(self) -> Dict[str, Any]:
        errors = _capacity_errors(self.points, self.results)
        counts = _engine_counts([self.engine])
        counts["units"] = self.units
        if counts["simulated"] != self.units:
            errors.append(f"simulated {counts['simulated']} points")
        return {
            "digest": _results_digest(self.results),
            "counts": counts,
            "errors": errors,
        }


class PacketAqm(_EnginePoints):
    """The ground-truth substrate: three packet-level points (drop-tail,
    RED, CoDel) through the engine.  ``sim.engine/link/endpoints/aqm``
    and the per-ACK ``cc`` adapters do the work, fluid none."""

    name = "packet_aqm"
    aqms = (None, "red", "codel")

    def __init__(self, seed: int, scratch: Path, quick: bool) -> None:
        # The packet substrate draws no randomness from the point seed
        # (only RED's lottery does), so the seed also moves the RTT a
        # little: packets simulated stay ~ capacity x duration.
        rtt_ms = 38.0 + 4.0 * random.Random(seed).random()
        self.points = [
            ScenarioPoint(
                link=BottleneckSpec.from_mbps_ms(25.0, rtt_ms, 2.0, aqm=aqm),
                mix=(("cubic", 2), ("bbr", 2)),
                duration=3.0 if quick else 8.0,
                backend="packet",
                seed=seed,
            )
            for aqm in self.aqms
        ]


class VecGrid(_EnginePoints):
    """The fluid layer used the other way: 40 ``fluid-vec`` points the
    engine's inline chunker pools into ``run_fluid_vec_batch`` calls.
    A substrate change that helps ``ne_search`` at the batched path's
    expense, or vice versa, shows here."""

    name = "vec_grid"
    buffers = (0.5, 1, 2, 3, 5, 8, 12, 20)
    bbr_counts = (2, 6, 10, 14, 18)
    flows = 20

    def __init__(self, seed: int, scratch: Path, quick: bool) -> None:
        self.points = [
            ScenarioPoint(
                link=BottleneckSpec.from_mbps_ms(100.0, 40.0, buffer),
                mix=(("cubic", self.flows - k), ("bbr", k)),
                duration=2.0 if quick else 20.0,
                backend="fluid-vec",
                seed=seed * 1000 + i * len(self.bbr_counts) + j,
            )
            for i, buffer in enumerate(self.buffers)
            for j, k in enumerate(self.bbr_counts)
        ]


class WarmResume:
    """No simulation in the body.  Setup populates a fresh result cache
    with a cold cached sweep (so ``setup_s`` is the cache-*write*
    side); the body does cycles of {warm rerun into a new directory;
    ``stop_after`` half; ``resume=True``} — every unit a fingerprint,
    cache get, journal append + fsync, sink write and progress
    sidecar."""

    name = "warm_resume"
    buffers = (0.5, 1, 2, 3, 5, 8, 10, 15, 20, 30)
    rtts = (20, 80)
    seeds = 15
    cycles = 3

    @classmethod
    def sweep_spec(cls, seed: int, seeds: int) -> Any:
        """The swept grid: buffers x RTTs x ``seeds`` 1-v-1 points."""
        return parse_spec(
            {
                "name": "bench-warm-resume",
                "link": {
                    "bandwidth_mbps": 50.0,
                    "rtt_ms": 40.0,
                    "buffer_bdp": 1.0,
                },
                "defaults": {
                    "duration": 2.0,
                    "backend": "fluid",
                    "trials": 1,
                    "seed": seed,
                    "mix": "cubic:1,bbr:1",
                },
                "axes": [
                    {"name": "buffer_bdp", "values": list(cls.buffers)},
                    {"name": "rtt_ms", "values": list(cls.rtts)},
                    {
                        "name": "seed",
                        "values": [seed * 1000 + i for i in range(seeds)],
                    },
                ],
                "stages": [{"name": "grid", "type": "sweep"}],
            },
            source=cls.name,
        )

    def __init__(self, seed: int, scratch: Path, quick: bool) -> None:
        seeds = 2 if quick else self.seeds
        self.cycles = 1 if quick else self.cycles
        self.spec = self.sweep_spec(seed, seeds)
        self.scratch = scratch
        self.cache = ResultCache(scratch / "cache")
        self.sweep = len(self.buffers) * len(self.rtts) * seeds
        # Per cycle every unit is committed twice: once by the warm
        # rerun, once by the stopped-then-resumed run.
        self.units = self.cycles * 2 * self.sweep
        self.ops = 1 + self.units
        engine = Engine(jobs=1, cache=self.cache)
        cold = run_campaign(self.spec, scratch / "cold", engine=engine)
        if engine.stats["simulated"] != self.sweep:
            raise RuntimeError(
                f"populate simulated {engine.stats['simulated']} of "
                f"{self.sweep} units"
            )
        self.cold_csv = cold.csv_path.read_bytes()

    def body(self) -> None:
        self.engines = []
        self.summaries = []
        for cycle in range(self.cycles):
            warm = Engine(jobs=1, cache=self.cache)
            resumed = Engine(jobs=1, cache=self.cache)
            self.engines += [warm, resumed]
            out = self.scratch / f"resumed{cycle}"
            self.summaries += [
                run_campaign(
                    self.spec, self.scratch / f"warm{cycle}", engine=warm
                ),
                run_campaign(
                    self.spec,
                    out,
                    engine=resumed,
                    stop_after=self.sweep // 2,
                ),
                run_campaign(self.spec, out, engine=resumed, resume=True),
            ]

    def check(self) -> Dict[str, Any]:
        errors = []
        counts = _engine_counts(self.engines)
        counts["units"] = self.units
        if counts["simulated"] != 0:
            errors.append(f"body simulated {counts['simulated']} points")
        for i, summary in enumerate(self.summaries):
            stopped = i % 3 == 1
            if summary.interrupted != stopped:
                errors.append(f"run {i}: interrupted={summary.interrupted}")
            elif not stopped and summary.csv_path.read_bytes() != (
                self.cold_csv
            ):
                errors.append(f"run {i}: CSV differs from the cold run")
        for row in csv.DictReader(
            self.cold_csv.decode("utf-8").splitlines()
        ):
            total = float(row["per_flow_mbps:cubic"]) + float(
                row["per_flow_mbps:bbr"]
            )
            if not 0.0 < total <= 50.0 * (1.0 + CAPACITY_SLACK):
                errors.append(f"aggregate {total:.2f} Mbps over capacity")
                break
        return {
            "digest": _sha(self.cold_csv),
            "counts": counts,
            "errors": errors,
        }


WORKLOADS = {
    cls.name: cls for cls in (NeSearch, PacketAqm, VecGrid, WarmResume)
}
