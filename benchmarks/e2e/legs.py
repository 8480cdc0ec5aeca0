"""Isolated legs: one layer's public function at a time.

Every leg is a best-of-``REPEATS`` of samples sized to run >= 0.2 s
here, so a number moves only when its own layer does.  They say
nothing about a workload on their own — README.md's interaction table
says which end-to-end metric each should move, and on which workload.
A leg whose layer is gone is reported absent with the reason; the
others still run.

Imported only by ``child.py`` (it imports the program, here through
``workloads`` and inside each leg).
"""

from __future__ import annotations

import os
from itertools import count
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from workloads import VecGrid, WarmResume

REPEATS = 5

Metric = Tuple[float, str]

#: What driving a layer that was removed or reshaped raises.
GONE = (ImportError, AttributeError, TypeError, LookupError)


def _best(fn: Callable[[], Any], repeats: int) -> Tuple[float, Any]:
    """Minimum wall time of ``fn()`` over ``repeats`` calls, and the
    last return value (consumed here, inside the caller's leg)."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = perf_counter()
        value = fn()
        best = min(best, perf_counter() - start)
    return best, value


class Legs:
    """Runs the legs; sizes shrink ~10x and repeats drop to 1 in quick
    mode.  ``scratch`` is a fresh directory on the benchmark's scratch
    filesystem (tmpfs by default); ``disk`` one on the checkout's real
    filesystem, used by the ``io.fsync_us`` leg alone."""

    def __init__(
        self, seed: int, scratch: Path, disk: Path, quick: bool
    ) -> None:
        self.seed = seed
        self.scratch = scratch
        self.disk = disk
        self.quick = quick
        self.repeats = 1 if quick else REPEATS
        self.scale = 0.1 if quick else 1.0

    def n(self, size: int) -> int:
        return max(2, int(size * self.scale))

    # -- packet substrate and the per-ACK adapters ------------------------

    def sim(self) -> Dict[str, Metric]:
        from repro.scenario import BottleneckSpec
        from repro.sim import FlowSpec, run_dumbbell

        duration = 5.0 * self.scale
        flows = [FlowSpec(cc="cubic"), FlowSpec(cc="bbr")]

        def link(aqm: Any) -> Any:
            return BottleneckSpec.from_mbps_ms(25.0, 40.0, 2.0, aqm=aqm)

        def timed(aqm: Any) -> Tuple[float, Any]:
            return _best(
                lambda: run_dumbbell(link(aqm), flows, duration=duration),
                self.repeats,
            )

        wall, result = timed(None)
        events = result.events_processed
        packets = sum(f.delivered_bytes for f in result.flows) / (
            link(None).mss
        )
        return {
            "sim.packets_per_s": (packets / wall, "1/s"),
            "sim.events_per_s": (events / wall, "1/s"),
            "sim.events_per_packet": (events / packets, "count"),
            "sim.aqm_overhead_ratio.red": (timed("red")[0] / wall, "ratio"),
            "sim.aqm_overhead_ratio.codel": (
                timed("codel")[0] / wall,
                "ratio",
            ),
        }

    def cc(self) -> Dict[str, Metric]:
        from repro.cc import make_controller
        from repro.cc.signals import LossEvent, RateSample

        acks = self.n(40_000)
        mss = 1500

        def drive(name: str) -> None:
            # The ACK stream a saturated bulk sender sees, with a
            # sporadic loss so on_loss stays on the measured path.
            controller = make_controller(name)
            rtt, delivered, now = 0.04, 0, 0.0
            for i in range(acks):
                delivered += mss
                now += rtt / 10.0
                controller.on_ack(
                    RateSample(
                        rtt=rtt + 0.002 * (i % 7),
                        delivery_rate=2e6,
                        delivered=delivered,
                        delivered_at_send=max(delivered - 10 * mss, 0),
                        acked_bytes=mss,
                        in_flight=10 * mss,
                        is_app_limited=False,
                        now=now,
                    )
                )
                if i % 500 == 499:
                    controller.on_loss(
                        LossEvent(
                            lost_bytes=mss, in_flight=9 * mss, now=now
                        )
                    )

        out = {}
        for name in ("cubic", "bbr"):
            wall, _ = _best(lambda: drive(name), self.repeats)
            out[f"cc.acks_per_s.{name}"] = (acks / wall, "1/s")
        return out

    # -- fluid substrates --------------------------------------------------

    def _fluid_case(self) -> Tuple[Any, List[Any], float]:
        from repro.fluidsim import FluidSpec
        from repro.scenario import BottleneckSpec

        link = BottleneckSpec.from_mbps_ms(100.0, 40.0, 2.0)
        flows = [FluidSpec(cc="cubic")] * 5 + [FluidSpec(cc="bbr")] * 5
        return link, flows, 60.0 * self.scale

    def fluid_scalar(self) -> Dict[str, Metric]:
        from repro.check import Checker
        from repro.fluidsim import run_fluid

        link, flows, duration = self._fluid_case()

        def run(check: Any) -> Any:
            return run_fluid(
                link, flows, duration, seed=self.seed, check=check
            )

        plain, result = _best(lambda: run(None), self.repeats)
        checked, _ = _best(lambda: run(Checker()), self.repeats)
        ticks = result.events_processed
        return {
            "fluidsim.scalar_flow_ticks_per_s": (
                len(flows) * ticks / plain,
                "1/s",
            ),
            "check.overhead_ratio": (checked / plain, "ratio"),
        }

    def fluid_vec(self) -> Dict[str, Metric]:
        from repro.fluidsim import BatchPoint, run_fluid_vec_batch

        link, flows, duration = self._fluid_case()
        duration /= 4.0

        def batch(size: int) -> Tuple[float, int]:
            points = [
                BatchPoint(
                    link=link,
                    flows=flows,
                    duration=duration,
                    seed=self.seed + i,
                )
                for i in range(size)
            ]
            wall, results = _best(
                lambda: run_fluid_vec_batch(points), self.repeats
            )
            return wall, results[0].events_processed

        wall1, ticks = batch(1)
        wall32, _ = batch(32)
        # Two-point line through (1, wall1) and (32, wall32): the
        # intercept is the cost of a tick that carries no point.
        fixed = wall1 - (wall32 - wall1) / 31.0
        return {
            "fluidsim.vec_flow_ticks_per_s.batch1": (
                len(flows) * ticks / wall1,
                "1/s",
            ),
            "fluidsim.vec_flow_ticks_per_s.batch32": (
                32 * len(flows) * ticks / wall32,
                "1/s",
            ),
            "fluidsim.vec_tick_overhead_us": (fixed / ticks * 1e6, "us"),
        }

    # -- exec: fingerprints, cache, warm engine, pool ----------------------

    def _points(self, count: int) -> List[Any]:
        from repro.exec import ScenarioPoint
        from repro.scenario import BottleneckSpec

        link = BottleneckSpec.from_mbps_ms(50.0, 40.0, 2.0)
        return [
            ScenarioPoint(
                link=link,
                mix=(("cubic", 1), ("bbr", 1)),
                duration=2.0,
                seed=self.seed * 100_000 + i,
            )
            for i in range(count)
        ]

    def _payload(self) -> Dict[str, Any]:
        """One real cached-result payload to populate caches with."""
        from repro.exec import Engine

        return Engine(jobs=1).run_points(self._points(1))[0].to_dict()

    def exec_cache(self) -> Dict[str, Metric]:
        from repro.exec import Engine, ResultCache

        payload = self._payload()
        points = self._points(self.n(3000))
        wall, prints = _best(
            lambda: [p.fingerprint() for p in points], self.repeats
        )
        out = {"exec.fingerprints_per_s": (len(points) / wall, "1/s")}

        puts = prints[: self.n(300)]
        fresh = count()

        def put_all() -> None:
            cache = ResultCache(self.scratch / f"puts{next(fresh)}")
            for fingerprint in puts:
                cache.put(fingerprint, payload)

        wall, _ = _best(put_all, self.repeats)
        out["exec.cache_puts_per_s"] = (len(puts) / wall, "1/s")

        cache = ResultCache(self.scratch / "gets")
        for fingerprint in prints:
            cache.put(fingerprint, payload)
        wall, _ = _best(
            lambda: [cache.get(fp) for fp in prints], self.repeats
        )
        out["exec.cache_gets_per_s"] = (len(prints) / wall, "1/s")

        def warm() -> int:
            engine = Engine(jobs=1, cache=cache)
            engine.run_points(points)
            return engine.stats["cache_hits"]

        wall, hits = _best(warm, self.repeats)
        if hits != len(points):
            raise RuntimeError(f"warm engine hit {hits}/{len(points)}")
        out["exec.warm_point_us"] = (wall / len(points) * 1e6, "us")
        return out

    def exec_pool(self) -> Dict[str, Metric]:
        from repro.exec import Engine

        if (os.cpu_count() or 1) < 2:
            raise LookupError("needs >= 2 cores")
        points = VecGrid(self.seed, self.scratch, self.quick).points

        def run(jobs: int) -> None:
            with Engine(jobs=jobs) as engine:
                engine.run_points(points)

        repeats = min(2, self.repeats)
        wall1, _ = _best(lambda: run(1), repeats)
        wall2, _ = _best(lambda: run(2), repeats)
        return {"exec.pool_speedup_jobs2": (wall1 / wall2, "ratio")}

    # -- campaign: expand, journal, sink, whole warm unit ------------------

    def campaign(self) -> Dict[str, Metric]:
        from repro.campaign import (
            CampaignSink,
            CsvSink,
            Journal,
            JournalRecord,
            expand_units,
            run_campaign,
        )
        from repro.exec import Engine, ResultCache

        spec = WarmResume.sweep_spec(self.seed, self.n(15))
        wall, units = _best(
            lambda: [expand_units(spec) for _ in range(5)][0],
            self.repeats,
        )
        out = {
            "campaign.expand_units_per_s": (5 * len(units) / wall, "1/s")
        }

        rows = ({"buffer_bdp": 2.0, "per_flow_mbps:bbr": 12.345678},)
        records = [
            JournalRecord(
                unit_id=unit.unit_id(),
                index=unit.index,
                stage=unit.stage,
                rows=rows,
                wall_s=0.0,
            )
            for unit in units
        ]
        fresh = count()

        def append_all() -> Any:
            journal = Journal(self.scratch / f"journal{next(fresh)}.jsonl")
            journal.create(spec.name, spec.fingerprint())
            for record in records:
                journal.append(record)
            return journal

        wall, journal = _best(append_all, self.repeats)
        out["campaign.journal_appends_per_s"] = (
            len(records) / wall,
            "1/s",
        )
        wall, read = _best(
            lambda: sum(
                sum(1 for _ in journal.iter_records()) for _ in range(10)
            ),
            self.repeats,
        )
        if read != 10 * len(records):
            raise RuntimeError(f"journal read back {read} records")
        out["campaign.journal_reads_per_s"] = (read / wall, "1/s")

        units_sunk = self.n(20_000)

        def sink_all() -> int:
            sink = CampaignSink(
                CsvSink(self.scratch / f"sink{next(fresh)}.csv")
            )
            for index in range(units_sunk):
                sink.add(index, rows)
                sink.flush()
            sink.close()
            return sink.rows_written

        wall, written = _best(sink_all, self.repeats)
        if written != units_sunk:
            raise RuntimeError(f"sink wrote {written}/{units_sunk} rows")
        out["campaign.sink_rows_per_s"] = (units_sunk / wall, "1/s")

        # A fully warm campaign: every unit is fingerprint -> cache get
        # -> journal append -> sink -> sidecar, and nothing else.
        cache = ResultCache(self.scratch / "warm-cache")
        payload = self._payload()
        for unit in units:
            cache.put(unit.to_point().fingerprint(), payload)

        def warm() -> int:
            engine = Engine(jobs=1, cache=cache)
            run_campaign(
                spec, self.scratch / f"warm{next(fresh)}", engine=engine
            )
            return engine.stats["simulated"]

        wall, simulated = _best(warm, self.repeats)
        if simulated:
            raise RuntimeError("warm campaign simulated points")
        out["campaign.unit_overhead_us"] = (wall / len(units) * 1e6, "us")
        return out

    # -- obs, core, io ------------------------------------------------------

    def misc(self) -> Dict[str, Metric]:
        from repro.core import predict_nash
        from repro.obs.progress import ProgressTracker
        from repro.scenario import BottleneckSpec

        tracker = ProgressTracker(total=1000, label="legs")
        tracker.stage_progress("grid", 10, 1000)
        tracker.update(10, 1000, 10)
        sidecar = str(self.scratch / "progress.json")
        writes = self.n(3000)

        def write_all() -> None:
            for _ in range(writes):
                tracker.write_sidecar(sidecar)

        wall, _ = _best(write_all, self.repeats)
        out = {"obs.sidecar_writes_per_s": (writes / wall, "1/s")}

        links = [
            BottleneckSpec.from_mbps_ms(100.0, 40.0, 0.5 + 0.5 * i)
            for i in range(100)
        ]
        rounds = self.n(300)
        wall, _ = _best(
            lambda: [
                predict_nash(link, 50)
                for _ in range(rounds)
                for link in links
            ],
            self.repeats,
        )
        out["core.predict_nash_us"] = (
            wall / (rounds * len(links)) * 1e6,
            "us",
        )

        syncs = self.n(300)

        def fsyncs() -> None:
            with open(self.disk / "fsync.bin", "wb") as handle:
                for _ in range(syncs):
                    handle.write(b"x" * 256)
                    handle.flush()
                    os.fsync(handle.fileno())

        wall, _ = _best(fsyncs, self.repeats)
        out["io.fsync_us"] = (wall / syncs * 1e6, "us")
        return out

    def run(self) -> Dict[str, Any]:
        """Every leg's metrics, plus ``absent``: leg -> reason for
        the ones whose layer could not be driven."""
        metrics: Dict[str, Dict[str, Any]] = {}
        absent: Dict[str, str] = {}
        for leg in (
            self.sim,
            self.cc,
            self.fluid_scalar,
            self.fluid_vec,
            self.exec_cache,
            self.exec_pool,
            self.campaign,
            self.misc,
        ):
            try:
                found = leg()
            except GONE as exc:
                absent[leg.__name__] = repr(exc)
                continue
            for name, (value, unit) in found.items():
                metrics[name] = {"value": value, "unit": unit}
        return {"metrics": metrics, "absent": absent}
