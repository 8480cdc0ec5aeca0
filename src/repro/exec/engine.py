"""Parallel scenario executor with content-addressed caching.

:class:`Engine` is the one place independent scenario points are turned
into results.  Sweeps declare their point lists (:class:`ScenarioPoint`)
and submit them through :meth:`Engine.run_points`; the engine answers
each point from the result cache when it can (lookups always happen in
the parent process, so hits never pay worker startup) and executes the
rest as *dispatch units*.

A unit is a list of pending points at most :data:`UNIT_MAX_ROWS` flow
rows wide, built by :meth:`Engine._dispatch_units` — the one grouping
rule, whatever ``jobs`` is: expensive points are units of one; cheap
points are split into ``jobs`` roughly equal units.
:func:`_execute_unit` is the only code that runs points.  A unit of
several points whose fluid members are together wide enough for the
vectorized substrate runs them as one batched call; every other point
runs on its own and is handed back before the next one starts.  With
``jobs == 1`` units execute in the calling process, lazily, under the
process telemetry bus and tracer; with ``jobs > 1`` each unit is one
future of :func:`_worker_unit` on a persistent ``ProcessPoolExecutor``
(one pickle round-trip per unit), whose workers run with telemetry
disabled and return picklable
:class:`~repro.experiments.runner.ScenarioResult` objects.

The worker pool is created lazily on the first parallel batch and kept
alive for the engine's lifetime (``close()`` shuts it down), so a long
campaign of small batches — e.g. the rounds of a stage of NE
bisections — pays pool startup once, not per batch, and single pending
points still fan out when ``jobs > 1``.  Accounting and submission are
lock-guarded: the engine is a public object, and a caller may drive
one engine from several threads and share its workers (nothing in this
package does — concurrent work reaches the engine as one batch per
round, :mod:`repro.util.rounds`).

A dead worker poisons the whole pool (``BrokenProcessPool``).  The pool
is then discarded (the next batch builds a fresh one) and the units that
had not come back are re-run in the calling process *as units* — a lost
vectorized unit is one vectorized call again — exactly once;
``worker_failures`` is counted and a second failure (now in-process)
propagates.

Observability: :attr:`Engine.stats` is the one record of what the
engine did (submitted, hits, misses, simulated, errors); the CLI prints
it as its ``exec:`` line.  Wall time is the span tracer's
(:mod:`repro.obs.trace`): spans around cache lookups, point execution
and cache stores.  Workers inherit tracing through ``REPRO_TRACE``,
record into a process-local tracer, and ship finished spans — plus a
pid/RSS heartbeat — back with each unit; the parent merges the spans so
the exported trace shows one lane per worker pid.  ``done``/``hits``
advance exactly once per submitted point, *when the point resolves*
(cache hits during the scan, executed points as results land, retried
points when the retry finishes).

``jobs=1`` executes inline and ``cache=None`` disables persistence.
Results are returned in submission order regardless of completion
order, and a batch containing duplicate points simulates each distinct
point once.

A process-wide *default engine* (:mod:`repro.util.ambient`): call
chains that do not thread an engine explicitly (the figure generators,
the NE throughput functions) pick up the installed default via
:func:`resolve`, and fall back to a shared sequential, cache-less
engine.
"""

from __future__ import annotations

import os
from threading import Lock
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.exec.cache import ResultCache
from repro.exec.fingerprint import ScenarioPoint
from repro.obs.trace import resolve as resolve_tracer
from repro.obs.trace import span
from repro.util.ambient import ProcessDefault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor

    # Imported lazily at runtime: repro.experiments imports repro.exec
    # (for the figure sweeps), so the reverse edge must stay deferred.
    from repro.experiments.runner import ScenarioResult

__all__ = [
    "Engine",
    "HeartbeatFn",
    "ProgressFn",
    "get_default",
    "set_default",
    "use",
    "resolve",
]

#: Progress callback: ``(points done, points submitted, cache hits)``,
#: all cumulative over the engine's lifetime.
ProgressFn = Callable[[int, int, int], None]

#: Worker-health callback: ``(pid, rss_kb)`` after each executed unit.
HeartbeatFn = Callable[[int, int], None]

#: Points whose estimated cost (flow count x duration, in
#: flow-seconds) falls below this are *cheap*: per-point dispatch
#: overhead (a future, a pickle round-trip, a worker wakeup) is
#: comparable to the simulation itself, so cheap points are grouped
#: into per-worker units instead of submitted one per future.
CHUNK_COST_THRESHOLD = 20_000.0

#: Upper bound on a unit's width in flow rows (flows, summed over its
#: points) — the memory guard of the vectorized batch path,
#: in the unit that path allocates by.  Measured (docs/PERFORMANCE.md,
#: "Tick cost", the row-cap curve): a unit's fluid points become one
#: array block costing ~5.6 MiB of RSS per 1 000 rows, while the time
#: per row-tick is within ~15 % of its floor from ~2 000 rows on — so
#: this buys the flat part of the curve for ~11 MiB per worker.
UNIT_MAX_ROWS = 2048


def _point_cost(point: ScenarioPoint) -> float:
    """Estimated cost of a point in flow-seconds."""
    return point.duration * point.rows


def _chunkable(point: ScenarioPoint) -> bool:
    return _point_cost(point) < CHUNK_COST_THRESHOLD


def _execute_unit(
    points: Sequence[ScenarioPoint], tracer: Any
) -> Iterator[Tuple[int, "ScenarioResult", float]]:
    """Run one dispatch unit — the only code that executes points.

    Yields ``(position in points, result, wall_seconds)`` as each point
    finishes.  When the unit has several points and its fluid members
    are together wide enough for the vectorized substrate
    (:func:`repro.experiments.runner.runs_vectorized`, the one substrate
    decision) they run as *one*
    :func:`repro.experiments.runner.run_mix_batch` call (bit-identical
    to per-point execution — the substrate is batch-invariant) and share
    its wall time evenly.  Every other point is a batch of one, yielded
    before the next one starts, so a consumer that stores each result as
    it arrives checkpoints per point even inside a multi-point unit.
    """
    from repro.experiments.runner import run_mix_batch, runs_vectorized

    pooled: List[int] = []
    if len(points) > 1 and runs_vectorized(points):
        pooled = [i for i, p in enumerate(points) if p.backend == "fluid"]
        start = perf_counter()
        with span(
            tracer,
            "point_batch",
            "exec",
            n=len(pooled),
            rows=sum(points[i].rows for i in pooled),
            backend="fluid",
        ):
            batch = run_mix_batch([points[i] for i in pooled])
        share = (perf_counter() - start) / len(pooled)
        for i, result in zip(pooled, batch):
            yield i, result, share
    for i, point in enumerate(points):
        if pooled and point.backend == "fluid":
            continue
        start = perf_counter()
        with span(
            tracer, "point", "exec", fingerprint=point.fingerprint()[:12]
        ):
            with span(tracer, "simulate", "exec", backend=point.backend):
                [result] = run_mix_batch([point])
        yield i, result, perf_counter() - start


def _worker_unit(
    points: Sequence[ScenarioPoint],
) -> Tuple[List[Tuple[int, "ScenarioResult", float]], Dict]:
    """Pool entry: run one dispatch unit.

    Returns ``(executed, extras)``: everything :func:`_execute_unit`
    yielded (wall times are measured inside the worker so queueing delay
    is not attributed to the simulation), and the worker's pid, max RSS
    and drained trace spans (when ``REPRO_TRACE`` is inherited).
    """
    from repro.obs import trace
    from repro.obs.progress import rss_self_kb

    # Spans recorded here are shipped back with the unit, so a fresh
    # local tracer is installed when the parent exported REPRO_TRACE.
    tracer = trace.Tracer() if trace.enabled_from_env() else None
    trace.set_default(tracer)

    executed = list(_execute_unit(points, tracer))
    extras = {
        "pid": os.getpid(),
        "rss_kb": rss_self_kb(),
        "spans": tracer.drain() if tracer is not None else [],
    }
    return executed, extras


class Engine:
    """Executes scenario points with caching and optional parallelism.

    Args:
        jobs: Maximum worker processes; 1 (the default) executes inline
            in the calling process.
        cache: A :class:`ResultCache`, or None to disable persistence.
        progress: Optional callback invoked after every resolved point
            with ``(done, submitted, cache_hits)`` cumulative counts.
        heartbeat: Optional callback ``(pid, rss_kb)`` after every
            executed unit — the worker-health feed for
            :class:`repro.obs.progress.ProgressTracker`.

    Pending points execute as dispatch units (:meth:`_dispatch_units`):
    cheap points (estimated cost below :data:`CHUNK_COST_THRESHOLD`)
    are grouped, and a unit's fluid points run as one vectorized call
    when they are wide enough for it (:func:`_execute_unit`).  Results
    are identical either way; grouping only removes dispatch and
    per-tick overhead.  Spans go to the process tracer
    (:func:`repro.obs.trace.resolve`), resolved per batch.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressFn] = None,
        heartbeat: Optional[HeartbeatFn] = None,
    ) -> None:
        # What close() touches comes first: __del__ runs even when the
        # validation below raises.
        self._lock = Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.heartbeat = heartbeat
        self.submitted = 0
        self.done = 0
        self.hits = 0
        self.misses = 0
        self.simulated = 0
        self.cache_errors = 0
        self.worker_failures = 0
        self.close_errors = 0

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the persistent worker pool down (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        if "_lock" not in self.__dict__:
            # The arguments never bound, so __init__ never ran: there
            # is no pool to shut down.
            return
        try:
            self.close()
        except (OSError, RuntimeError):
            # Interpreter/pool teardown races: the executor's machinery
            # may already be gone when the GC finalizes us.  Recoverable
            # (the pool is dying anyway) — count it and move on.
            self.close_errors += 1
        except Exception as exc:
            raise RuntimeError(
                f"Engine.close() failed during finalization: {exc}"
            ) from exc

    def _pool(self) -> ProcessPoolExecutor:
        # Imported here: only a jobs > 1 batch loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(max_workers=self.jobs)
            return self._executor

    def _discard_pool(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    # -- accounting --------------------------------------------------------

    @property
    def stats(self) -> Dict[str, int]:
        """Cumulative execution counters — the engine's one record."""
        return {
            "submitted": self.submitted,
            "done": self.done,
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "simulated": self.simulated,
            "cache_errors": self.cache_errors,
            "worker_failures": self.worker_failures,
            "close_errors": self.close_errors,
        }

    def _notify(self) -> None:
        if self.progress is not None:
            self.progress(self.done, self.submitted, self.hits)

    def _cache_lookup(self, fingerprint: str) -> Optional[Dict]:
        """Parent-side cache probe with corruption accounting."""
        if self.cache is None:
            return None
        # One read decides hit, miss or corrupt, so a campaign sharing
        # the cache cannot change the entry between two looks at it.
        payload, corrupt = self.cache.lookup(fingerprint)
        if corrupt:
            with self._lock:
                self.cache_errors += 1
        return payload

    def _account_hit(self) -> None:
        """A point answered from cache: done and hits advance together."""
        with self._lock:
            self.hits += 1
            self.done += 1
        self._notify()

    def _account_miss(self) -> None:
        """A point that must execute; ``done`` advances on completion."""
        with self._lock:
            self.misses += 1

    def _complete_index(self) -> None:
        """One submitted index resolved by execution (once, ever)."""
        with self._lock:
            self.done += 1
        self._notify()

    def _record_executed(
        self, fingerprint: str, result: "ScenarioResult", tracer: Any
    ) -> None:
        """Count one executed point and store its result."""
        with self._lock:
            self.simulated += 1
        if self.cache is not None:
            with span(tracer, "cache_store", "exec"):
                self.cache.put(fingerprint, result.to_dict())

    # -- execution ---------------------------------------------------------

    def iter_points(
        self, points: Sequence[ScenarioPoint]
    ) -> Iterator[Tuple[int, "ScenarioResult", float]]:
        """Resolve points, yielding ``(index, result, wall_seconds)`` as
        each one completes.

        ``index`` is the point's position in the submitted sequence;
        ``wall_seconds`` is the simulation time (0.0 for cache hits).
        Cache hits are yielded first, in submission order, during the
        initial scan; simulated points follow in completion order.
        Duplicate points share one execution and yield once per index.

        This is the checkpointing surface: callers that persist partial
        progress (the campaign journal) consume this iterator so a
        killed process loses at most the in-flight points — everything
        already yielded has also been written to the result cache.
        """
        points = list(points)
        tracer = resolve_tracer(None)
        with self._lock:
            self.submitted += len(points)

        from repro.experiments.runner import ScenarioResult

        # fingerprint -> indices still waiting on it (duplicates share
        # one execution).
        pending: Dict[str, List[int]] = {}
        pending_points: Dict[str, ScenarioPoint] = {}
        for i, point in enumerate(points):
            fingerprint = point.fingerprint()
            if fingerprint in pending:
                pending[fingerprint].append(i)
                self._account_miss()
                continue
            with span(tracer, "cache_lookup", "exec"):
                payload = self._cache_lookup(fingerprint)
            if payload is not None:
                result = ScenarioResult.from_dict(payload)
                self._account_hit()
                yield i, result, 0.0
            else:
                pending[fingerprint] = [i]
                pending_points[fingerprint] = point
                self._account_miss()

        units = self._dispatch_units(pending_points)
        if self.jobs > 1 and units:
            stream = self._pool_units(units, pending_points, tracer)
        else:
            stream = self._inline_units(units, pending_points, tracer)
        for fingerprint, result, elapsed in stream:
            self._record_executed(fingerprint, result, tracer)
            for idx in pending[fingerprint]:
                self._complete_index()
                yield idx, result, elapsed

    def _dispatch_units(
        self, pending_points: Dict[str, ScenarioPoint]
    ) -> List[List[str]]:
        """Group pending fingerprints into dispatch units — the one
        grouping rule, for inline and pool execution alike.

        Expensive points are solo units.  Cheap points are split into
        ``jobs`` roughly equal units — one per worker — and a unit is
        closed early rather than grow past :data:`UNIT_MAX_ROWS` flow
        rows; whoever executes a unit decides scalar or vectorized for
        it (:func:`_execute_unit`), where the live bus/checker state is
        known.
        """
        cheap = [
            fp for fp, point in pending_points.items() if _chunkable(point)
        ]
        cheap_set = set(cheap)
        units = [[fp] for fp in pending_points if fp not in cheap_set]
        size = -(-len(cheap) // self.jobs)  # ceil div
        unit: List[str] = []
        rows = 0
        for fp in cheap:
            width = pending_points[fp].rows
            if unit and (len(unit) == size or rows + width > UNIT_MAX_ROWS):
                units.append(unit)
                unit, rows = [], 0
            unit.append(fp)
            rows += width
        if unit:
            units.append(unit)
        return units

    def _inline_units(
        self,
        units: Sequence[List[str]],
        pending_points: Dict[str, ScenarioPoint],
        tracer: Any,
    ) -> Iterator[Tuple[str, "ScenarioResult", float]]:
        """Execute units in this process, lazily: nothing runs until the
        consumer asks for the next result.  Inline execution keeps the
        caller's telemetry wiring."""
        from repro.obs.progress import rss_self_kb

        for unit in units:
            for i, result, elapsed in _execute_unit(
                [pending_points[fp] for fp in unit], tracer
            ):
                yield unit[i], result, elapsed
            if self.heartbeat is not None:
                self.heartbeat(os.getpid(), rss_self_kb())

    def _pool_units(
        self,
        units: Sequence[List[str]],
        pending_points: Dict[str, ScenarioPoint],
        tracer: Any,
    ) -> Iterator[Tuple[str, "ScenarioResult", float]]:
        """Fan units out over the worker pool, one future each, yielding
        their results as units come back.  On ``BrokenProcessPool`` the
        units still in ``waiting`` are re-run through
        :meth:`_inline_units` (see the module docstring)."""
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        waiting = dict(enumerate(units))
        try:
            pool = self._pool()
            futures = {
                pool.submit(
                    _worker_unit, [pending_points[fp] for fp in unit]
                ): key
                for key, unit in waiting.items()
            }
            outstanding = set(futures)
            while outstanding:
                ready, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in ready:
                    executed, extras = future.result()
                    # Dropping the future releases its pickled result;
                    # keeping every completed future alive for the
                    # whole batch made peak memory scale with batch
                    # size instead of with in-flight work.
                    unit = waiting.pop(futures.pop(future))
                    if tracer is not None and extras["spans"]:
                        tracer.merge(extras["spans"])
                    if self.heartbeat is not None:
                        self.heartbeat(extras["pid"], extras["rss_kb"])
                    for i, result, elapsed in executed:
                        yield unit[i], result, elapsed
        except BrokenProcessPool:
            self._discard_pool()
            with self._lock:
                self.worker_failures += 1
            yield from self._inline_units(
                list(waiting.values()), pending_points, tracer
            )

    def run_points(
        self, points: Sequence[ScenarioPoint]
    ) -> List["ScenarioResult"]:
        """Resolve every point, in submission order.

        Cache hits are answered immediately; remaining distinct points
        run inline (``jobs == 1``) or across worker processes.  All
        points of a batch are resolved before this returns.
        """
        points = list(points)
        results: List[Optional["ScenarioResult"]] = [None] * len(points)
        for index, result, _elapsed in self.iter_points(points):
            results[index] = result
        return results  # type: ignore[return-value]  # all filled above


# -- default-engine plumbing --------------------------------------------------

#: ``resolve(None)`` with no engine installed answers with one shared
#: sequential, cache-less engine (historical behavior), built lazily.
_DEFAULT = ProcessDefault(factory=Engine)

get_default = _DEFAULT.get
set_default = _DEFAULT.set
resolve = _DEFAULT.resolve
use = _DEFAULT.use
