"""Campaign orchestration: execute units, checkpoint, resume, report.

:func:`run_campaign` owns a campaign *output directory*::

    <out>/spec.json       frozen copy of the validated spec + fingerprint
    <out>/journal.jsonl   checkpoint journal (one line per finished unit)
    <out>/<csv>           derived-metric table, streamed unit-by-unit
    <out>/manifest.json   campaign manifest (repro.obs)

Execution streams through :meth:`repro.exec.Engine.iter_points` for
``sweep`` stages (parallel fan-out, content-addressed cache) and runs
``adaptive`` units — empirical-NE bisections reusing the figure-9
best-response machinery — and ``population`` units — seeded adoption
trajectories through :func:`repro.population.run_population`, each
unit's tier-0/tier-1 payoff lookups engine-routed and cached, its
calibration error map merged into ``<out>/error_map.json``.  Every
finished unit is
journaled durably before the next is started, so a killed campaign
resumed with ``repro-bbr campaign resume`` replays the journal, submits
only the missing units, and (because in-flight results were already in
the result cache) re-simulates nothing.

Result aggregation is *streaming* (see :mod:`repro.campaign.sink`):
:func:`iter_units` is a generator yielding each newly executed
:class:`UnitOutcome` exactly once, and :func:`run_campaign` pipes the
stream through a :class:`~repro.campaign.sink.CampaignSink` that
appends rows to the CSV (and optional JSONL mirror) the moment each
unit's journal record is durable, then drops them.  Peak memory is
therefore independent of campaign size — the "millions of cells" grid
sweeps the ROADMAP calls for run in bounded memory, and a crash loses
at most the unflushed tail of the CSV, never the file.

Output rows are assembled in *unit order*, not completion order (the
sink reorders the bounded out-of-order frontier), so an
interrupted-and-resumed campaign writes a byte-identical CSV to an
uninterrupted one: resume rebuilds the partial CSV from the journal —
the authoritative record — before continuing, which reconciles every
kill window, including a kill between a journal fsync and the
corresponding CSV flush.

Observability (see ``docs/OBSERVABILITY.md``): when a tracer is active
(:mod:`repro.obs.trace`), the run is bracketed by a ``campaign`` span
with one ``stage`` span per stage, a ``unit`` span per adaptive unit,
and a ``journal`` span per durable checkpoint append; engine-level
``cache_lookup``/``point``/``simulate`` spans nest inside.  A
:class:`repro.obs.progress.ProgressTracker` (created internally unless
one is passed) counts units done/total per stage and writes an
atomically-replaced ``progress.json`` sidecar next to the journal after
every unit — the feed for ``repro-bbr top`` and ``--progress``.

Adaptive units at one axis combination are independent searches, so when
the engine has ``jobs > 1`` (and no ``stop_after`` exactness contract is
in force) they run concurrently on threads, each bisection evaluation
dispatched to the engine's shared worker pool.  Results are unchanged —
every unit seeds its own simulations — but the pool stays busy instead
of draining one bisection at a time.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from threading import Lock
from time import perf_counter
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.campaign.expand import Unit, expand_units
from repro.campaign.journal import Journal, JournalError, JournalRecord
from repro.campaign.sink import CampaignSink, CsvSink, JsonlSink
from repro.campaign.spec import CampaignSpec, parse_spec
from repro.exec.engine import Engine, resolve as resolve_engine
from repro.obs.progress import PROGRESS_NAME, ProgressTracker
from repro.obs.trace import resolve as resolve_tracer
from repro.obs.trace import span

__all__ = [
    "CampaignError",
    "CampaignSummary",
    "UnitOutcome",
    "iter_units",
    "load_campaign",
    "run_campaign",
]


SPEC_NAME = "spec.json"
MANIFEST_NAME = "manifest.json"
ERROR_MAP_NAME = "error_map.json"
SPEC_FILE_SCHEMA = 1

#: Serializes read-modify-write merges of the campaign error-map
#: artifact when population units fan out on threads.
_ERROR_MAP_LOCK = Lock()


class CampaignError(RuntimeError):
    """A campaign cannot run as requested; the message is one line."""


@dataclass(frozen=True)
class UnitOutcome:
    """One resolved unit: its output rows and where they came from."""

    unit_id: str
    index: int
    stage: str
    rows: Tuple[Dict[str, Any], ...]
    wall_s: float
    from_journal: bool


@dataclass(frozen=True)
class CampaignSummary:
    """What a campaign run did, for reporting and tests."""

    name: str
    out_dir: Path
    total_units: int
    from_journal: int
    executed: int
    rows: int
    wall_s: float
    interrupted: bool
    csv_path: Optional[Path]


# -- derived metrics ---------------------------------------------------------


def _metric_value(metric: str, result: Any) -> Any:
    """Evaluate one spec metric against a ScenarioResult."""
    base, _sep, cc = metric.partition(":")
    if base == "per_flow_mbps":
        return result.per_flow_mbps(cc)
    if base == "aggregate_mbps":
        return result.aggregate.get(cc, 0.0) * 8.0 / 1e6
    if base == "loss_rate":
        return result.loss_rate.get(cc, 0.0)
    if base == "retransmits":
        return result.retransmits.get(cc, 0.0)
    if base == "queuing_delay_ms":
        return result.mean_queuing_delay * 1e3
    if base == "drop_rate":
        return result.drop_rate
    raise CampaignError(f"unknown metric {metric!r}")  # pragma: no cover


def _sweep_rows(
    spec: CampaignSpec, unit: Unit, result: Any
) -> Tuple[Dict[str, Any], ...]:
    """One CSV row for a sweep unit: swept values then metric columns."""
    row = unit.combo_dict()
    for metric in spec.metrics:
        row[metric] = _metric_value(metric, result)
    return (row,)


def _run_adaptive(
    unit: Unit, engine: Engine
) -> Tuple[Tuple[Dict[str, Any], ...], float]:
    """One NE bisection: rows per equilibrium found at this combination.

    Seeding matches the hand-coded figure-9 loop exactly
    (``seed + stride × search`` into ``distribution_throughput_fn``), so
    a campaign and the figure generator hit the same cache entries.
    """
    from repro.core.game import bisect_nash
    from repro.core.nash import predict_nash
    from repro.experiments.runner import distribution_throughput_fn

    start = perf_counter()
    fn = distribution_throughput_fn(
        unit.link,
        unit.flows,
        challenger=unit.challenger,
        incumbent=unit.incumbent,
        duration=unit.duration,
        backend=unit.backend,
        trials=unit.trials,
        seed=unit.seed + unit.seed_stride * unit.search,
        engine=engine,
    )
    equilibria, _cache = bisect_nash(unit.flows, fn)
    # The analytic Nash-region bounds (Eq. 25) ride along as model
    # columns; they describe the CUBIC-vs-BBR game, the one the paper
    # (and the bundled specs) study.
    prediction = predict_nash(unit.link, unit.flows)
    rows: List[Dict[str, Any]] = []
    for k in equilibria:
        row = unit.combo_dict()
        row["search"] = unit.search
        row["ne_challenger"] = k
        row["ne_incumbent"] = unit.flows - k
        row["model_incumbent_sync"] = prediction.n_cubic_sync
        row["model_incumbent_desync"] = prediction.n_cubic_desync
        rows.append(row)
    return tuple(rows), perf_counter() - start


def _run_population(
    unit: Unit, engine: Engine
) -> Tuple[Tuple[Dict[str, Any], ...], float, Any]:
    """One adoption trajectory: a single CSV row plus the error map.

    The unit's link and flow count define a one-cell population; the
    trajectory is fully determined by the unit's resolved parameters
    (the oracle consumes no trajectory randomness), so journal replay
    and re-execution produce identical rows.
    """
    from repro.population import (
        CellSpec,
        DynamicsConfig,
        TieredOracle,
        run_population,
    )

    start = perf_counter()
    cell = CellSpec(link=unit.link, n_flows=unit.flows, label=unit.stage)
    oracle = TieredOracle(
        engine=engine,
        error_threshold=unit.error_threshold,
        duration=unit.duration,
        trials=unit.trials,
        seed=unit.seed,
    )
    result = run_population(
        [cell],
        dynamics=DynamicsConfig(
            name=unit.dynamics,
            epsilon=unit.epsilon,
            mutation=unit.mutation,
            inertia=unit.inertia,
        ),
        ticks=unit.ticks,
        seed=unit.seed,
        strategies=(unit.incumbent, unit.challenger),
        init_share=unit.init_share,
        oracle=oracle,
    )
    ne = result.ne[0]
    row = unit.combo_dict()
    row.setdefault("dynamics", unit.dynamics)
    row["flows"] = unit.flows
    row["challenger"] = unit.challenger
    row["final_challenger_share"] = result.final_share(unit.challenger)
    row["model_share_sync"] = ne["share_sync"] if ne else ""
    row["model_share_desync"] = ne["share_desync"] if ne else ""
    row["converged"] = result.converged
    row["oracle_tier0"] = result.oracle["tier0"]
    row["oracle_tier1"] = result.oracle["tier1"]
    row["max_rel_error"] = result.error_map.max_rel_error()
    return (row,), perf_counter() - start, result.error_map


def _merge_error_map(path: Path, error_map: Any) -> None:
    """Fold one unit's calibration entries into the campaign artifact."""
    if not error_map.entries:
        return
    from repro.population import ErrorMap

    with _ERROR_MAP_LOCK:
        merged = ErrorMap.load(str(path)) if path.exists() else ErrorMap()
        merged.merge(error_map)
        merged.save(str(path))


# -- execution ---------------------------------------------------------------


def iter_units(
    spec: CampaignSpec,
    units: List[Unit],
    engine: Optional[Engine] = None,
    skip: Optional[Collection[str]] = None,
    on_unit: Optional[Callable[[UnitOutcome], None]] = None,
    stop_after: Optional[int] = None,
    artifacts_dir: Optional[Union[str, Path]] = None,
) -> Iterator[UnitOutcome]:
    """Execute every unit not in ``skip``, yielding outcomes as they
    finish.

    This is the streaming core of the campaign layer: each newly
    executed :class:`UnitOutcome` is yielded exactly once, in
    completion order, and nothing is retained afterwards — consumers
    that drop each outcome after use (the journaling/sink pipeline in
    :func:`run_campaign`) run in memory independent of campaign size.

    ``on_unit`` fires once per unit, before it is yielded and before
    the next unit starts — the journaling hook.  ``stop_after`` stops
    cleanly after that many new executions (the deterministic stand-in
    for a killed campaign, used by tests and the CI smoke job); the
    generator's return value (``StopIteration.value``) is True when the
    run stopped early.

    Adaptive and population stages run their units concurrently
    (threads feeding the engine's shared worker pool) when
    ``engine.jobs > 1`` — except under ``stop_after``, whose exactly-N
    contract requires sequential execution.  Outcomes are always
    yielded (and ``on_unit`` fired) from the calling thread.
    ``artifacts_dir``, when given, receives the merged population error
    map (``error_map.json``), folded in as each population unit
    finishes — before its journal record — so an interrupted campaign
    keeps the calibrations it already paid for.
    """
    eng = resolve_engine(engine)
    tracer = resolve_tracer(None)
    skip = frozenset(skip) if skip else frozenset()
    executed = 0
    interrupted = False

    todo: List[Unit] = []
    for position, unit in enumerate(units):
        if unit.index != position:  # pragma: no cover - expander invariant
            raise CampaignError(
                f"unit list is not in index order at position {position}"
            )
        if unit.unit_id() not in skip:
            todo.append(unit)

    def finish(outcome: UnitOutcome) -> None:
        """Account one new execution (journal hook + stop check)."""
        nonlocal executed, interrupted
        executed += 1
        if on_unit is not None:
            on_unit(outcome)
        if stop_after is not None and executed >= stop_after:
            interrupted = True

    def adaptive_outcome(unit: Unit) -> UnitOutcome:
        with span(tracer, "unit", "campaign", unit=unit.unit_id()):
            rows, wall = _run_adaptive(unit, eng)
        return UnitOutcome(
            unit_id=unit.unit_id(),
            index=unit.index,
            stage=unit.stage,
            rows=rows,
            wall_s=wall,
            from_journal=False,
        )

    artifacts = Path(artifacts_dir) if artifacts_dir is not None else None

    def population_outcome(unit: Unit) -> UnitOutcome:
        with span(tracer, "unit", "campaign", unit=unit.unit_id()):
            rows, wall, error_map = _run_population(unit, eng)
        if artifacts is not None:
            _merge_error_map(artifacts / ERROR_MAP_NAME, error_map)
        return UnitOutcome(
            unit_id=unit.unit_id(),
            index=unit.index,
            stage=unit.stage,
            rows=rows,
            wall_s=wall,
            from_journal=False,
        )

    for stage in spec.stages:
        if interrupted:
            break
        stage_units = [u for u in todo if u.stage == stage.name]
        if not stage_units:
            continue
        with span(
            tracer,
            "stage",
            "campaign",
            stage=stage.name,
            kind=stage.kind,
            units=len(stage_units),
        ):
            if stage.kind == "sweep":
                points = [u.to_point() for u in stage_units]
                for position, result, wall in eng.iter_points(points):
                    unit = stage_units[position]
                    outcome = UnitOutcome(
                        unit_id=unit.unit_id(),
                        index=unit.index,
                        stage=unit.stage,
                        rows=_sweep_rows(spec, unit, result),
                        wall_s=wall,
                        from_journal=False,
                    )
                    finish(outcome)
                    yield outcome
                    if interrupted:
                        break
                continue
            # Adaptive and population units: independent computations.
            # Fan out on threads (their scenario points go to the
            # engine's shared pool) unless stop_after demands
            # deterministic sequencing.
            runner = (
                population_outcome
                if stage.kind == "population"
                else adaptive_outcome
            )
            threads = (
                1
                if stop_after is not None
                else min(eng.jobs, len(stage_units))
            )
            if threads <= 1:
                for unit in stage_units:
                    outcome = runner(unit)
                    finish(outcome)
                    yield outcome
                    if interrupted:
                        break
            else:
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    futures = [
                        pool.submit(runner, unit)
                        for unit in stage_units
                    ]
                    for future in as_completed(futures):
                        outcome = future.result()
                        finish(outcome)
                        yield outcome
    return interrupted


def _drain(stream: Iterator[UnitOutcome]) -> Tuple[int, bool]:
    """Run an :func:`iter_units` stream to completion, retaining
    nothing; returns ``(units executed, interrupted)``."""
    executed = 0
    while True:
        try:
            next(stream)
        except StopIteration as stop:
            return executed, bool(stop.value)
        executed += 1


# -- the campaign directory --------------------------------------------------


def _write_spec_file(spec: CampaignSpec, out_dir: Path) -> None:
    payload = {
        "schema": SPEC_FILE_SCHEMA,
        "fingerprint": spec.fingerprint(),
        "spec": spec.to_dict(),
    }
    (out_dir / SPEC_NAME).write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )


def load_campaign(out_dir: Union[str, Path]) -> CampaignSpec:
    """Recover the validated spec frozen into a campaign directory."""
    path = Path(out_dir) / SPEC_NAME
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CampaignError(
            f"{out_dir}: not a campaign directory (no {SPEC_NAME})"
        ) from None
    except (OSError, ValueError) as exc:
        raise CampaignError(f"{path}: cannot load spec: {exc}") from None
    if not isinstance(data, dict) or data.get("schema") != SPEC_FILE_SCHEMA:
        raise CampaignError(
            f"{path}: unsupported campaign spec file (schema "
            f"{data.get('schema') if isinstance(data, dict) else '?'!r})"
        )
    return parse_spec(data.get("spec"), source=str(path))


def run_campaign(
    spec: CampaignSpec,
    out_dir: Union[str, Path],
    engine: Optional[Engine] = None,
    resume: bool = False,
    stop_after: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
    progress: Optional[ProgressTracker] = None,
    on_progress: Optional[Callable[[ProgressTracker], None]] = None,
) -> CampaignSummary:
    """Run (or resume) a campaign into ``out_dir``.

    Fresh runs refuse a directory that already has a journal (resuming
    must be explicit — silently continuing someone else's half-finished
    study is how results get mixed); resumes refuse a directory whose
    journal belongs to a different spec fingerprint.  On a clean finish
    the derived-metric CSV and the campaign manifest are written; an
    interrupted run (``stop_after``) leaves only the journal, ready to
    resume.

    Progress: a :class:`ProgressTracker` (the given one, or an internal
    one) counts units done/total per stage, and after every journaled
    unit the machine-readable ``progress.json`` sidecar is rewritten
    atomically next to the journal; ``on_progress`` fires at the same
    cadence with the tracker (the CLI's live ``--progress`` hook).  The
    engine's worker heartbeats are wired into the tracker for the run
    when the engine has no heartbeat sink of its own.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    journal = Journal.in_dir(out)
    fingerprint = spec.fingerprint()

    # Pass 1 over the journal (streaming): the completed-unit id set and
    # per-stage tallies — ids only, rows are not retained.
    completed_ids: set = set()
    stage_done: Dict[str, int] = {}
    if resume:
        for record in journal.iter_records(expect_fingerprint=fingerprint):
            completed_ids.add(record.unit_id)
            stage_done[record.stage] = stage_done.get(record.stage, 0) + 1
    else:
        if journal.exists():
            raise CampaignError(
                f"{out}: already contains a campaign journal; use "
                f"'repro-bbr campaign resume {out}' to continue it"
            )
        _write_spec_file(spec, out)
        journal.create(spec.name, fingerprint)

    units = expand_units(spec)
    unknown = completed_ids - {unit.unit_id() for unit in units}
    if unknown:
        raise JournalError(
            f"{journal.path}: {len(unknown)} journaled unit(s) do not "
            "match the spec expansion; refusing to mix studies"
        )

    sink = CampaignSink(
        CsvSink(out / spec.csv_name),
        JsonlSink(out / spec.jsonl_name) if spec.jsonl_name else None,
    )
    if resume:
        # Pass 2: rebuild the partial CSV from the journal, row-at-a-
        # time.  The journal is the authoritative record; whatever
        # partial CSV the killed run left behind (possibly missing its
        # last flush, or torn mid-row) is truncated and rewritten up to
        # exactly the journaled unit boundary, so every kill window —
        # including a kill between the journal fsync and the CSV flush —
        # converges to the same bytes.
        for record in journal.iter_records(expect_fingerprint=fingerprint):
            sink.add(record.index, record.rows)
        sink.flush()

    eng = resolve_engine(engine)
    tracer = resolve_tracer(None)
    tracker = progress or ProgressTracker(
        total=len(units), label=spec.name
    )
    sidecar = out / PROGRESS_NAME

    # Per-stage totals; done counts were seeded by journal pass 1.
    stage_total: Dict[str, int] = {}
    for unit in units:
        stage_total[unit.stage] = stage_total.get(unit.stage, 0) + 1
    done_units = len(completed_ids)
    from_journal = len(completed_ids)
    for stage, total in stage_total.items():
        tracker.stage_progress(stage, stage_done.get(stage, 0), total)
    tracker.update(done_units, len(units), eng.hits)
    tracker.set_rows(sink.rows_seen)
    tracker.write_sidecar(str(sidecar))

    def journal_unit(outcome: UnitOutcome) -> None:
        nonlocal done_units
        with span(tracer, "journal", "campaign", unit=outcome.unit_id):
            journal.append(
                JournalRecord(
                    unit_id=outcome.unit_id,
                    index=outcome.index,
                    stage=outcome.stage,
                    rows=outcome.rows,
                    wall_s=outcome.wall_s,
                )
            )
        # The unit is now committed (journal fsync-ed); stream its rows
        # to the sink and drop them.  The CSV flush trails the journal
        # by design — resume rebuilds the CSV from the journal.
        sink.add(outcome.index, outcome.rows)
        sink.flush()
        done_units += 1
        stage_done[outcome.stage] = stage_done.get(outcome.stage, 0) + 1
        tracker.stage_progress(
            outcome.stage,
            stage_done[outcome.stage],
            stage_total.get(outcome.stage, 0),
        )
        tracker.update(done_units, len(units), eng.hits)
        tracker.set_rows(sink.rows_seen)
        tracker.write_sidecar(str(sidecar))
        if on_progress is not None:
            on_progress(tracker)
        if log is not None:
            log(
                f"  unit {outcome.index + 1}/{len(units)} done "
                f"[{outcome.stage}] ({outcome.wall_s:.2f}s, "
                f"{len(outcome.rows)} row(s))"
            )

    # Worker heartbeats and point-level progress feed the tracker unless
    # the caller wired the engine's callbacks elsewhere already.
    restore_heartbeat = False
    if eng.heartbeat is None:
        eng.heartbeat = tracker.heartbeat
        restore_heartbeat = True
    restore_progress = False
    if eng.progress is None:
        eng.progress = tracker.update_points
        restore_progress = True

    start = perf_counter()
    try:
        with span(
            tracer,
            "campaign",
            "campaign",
            campaign=spec.name,
            fingerprint=fingerprint[:12],
            units=len(units),
        ):
            executed, interrupted = _drain(
                iter_units(
                    spec,
                    units,
                    engine=eng,
                    skip=completed_ids,
                    on_unit=journal_unit,
                    stop_after=stop_after,
                    artifacts_dir=out,
                )
            )
    finally:
        if restore_heartbeat:
            eng.heartbeat = None
        if restore_progress:
            eng.progress = None
        sink.close()
    wall = perf_counter() - start
    tracker.write_sidecar(str(sidecar))

    if interrupted:
        return CampaignSummary(
            name=spec.name,
            out_dir=out,
            total_units=len(units),
            from_journal=from_journal,
            executed=executed,
            rows=sink.rows_seen,
            wall_s=wall,
            interrupted=True,
            csv_path=None,
        )

    csv_path = out / spec.csv_name
    n_rows = sink.rows_written

    from repro.obs.manifest import CampaignManifest

    CampaignManifest.build(
        spec_name=spec.name,
        fingerprint=fingerprint,
        total_units=len(units),
        from_journal=from_journal,
        executed=executed,
        rows=n_rows,
        wall_time_s=wall,
        csv=spec.csv_name,
        exec_stats=dict(eng.stats),
    ).write(str(out / MANIFEST_NAME))

    return CampaignSummary(
        name=spec.name,
        out_dir=out,
        total_units=len(units),
        from_journal=from_journal,
        executed=executed,
        rows=n_rows,
        wall_s=wall,
        interrupted=False,
        csv_path=csv_path,
    )
