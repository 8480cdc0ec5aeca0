"""Campaign orchestration: execute units, checkpoint, resume, report.

:func:`run_campaign` owns a campaign *output directory*::

    <out>/spec.json       frozen copy of the validated spec + fingerprint
    <out>/journal.jsonl   checkpoint journal (one line per finished unit)
    <out>/<csv>           derived-metric table, streamed unit-by-unit
    <out>/manifest.json   campaign manifest (repro.obs)

How a stage's units execute is its kind's ``run``
(:data:`repro.campaign.vocab.KINDS`): ``sweep`` units stream through
:meth:`repro.exec.Engine.iter_points` (parallel fan-out,
content-addressed cache); ``adaptive`` units — empirical-NE bisections
reusing the figure-9 best-response machinery — and ``population``
units — seeded adoption trajectories, their calibration error maps
merged into ``<out>/error_map.json`` — are round generators advanced
in lock step, each round of every live unit one ``Engine.run_points``
batch (:func:`repro.campaign.vocab._in_rounds`; the campaign layer
starts no thread).  Every finished unit is journaled durably before
the next is accounted, so a killed campaign resumed with ``repro-bbr
campaign resume`` replays the journal, submits only the missing units,
and (because every point a round evaluated was already in the result
cache) re-simulates nothing.

Result aggregation is *streaming*: :func:`iter_units` yields each newly
executed :class:`UnitOutcome` exactly once, and :func:`run_campaign`
pipes the stream through :mod:`repro.campaign.sink` at the journal's
commit point — bounded memory, rows in *unit order*, and a resume that
rebuilds the partial CSV from the journal, so an interrupted-and-resumed
campaign writes a byte-identical CSV (that module's docstring has the
durability contract).

Observability (see ``docs/OBSERVABILITY.md``): when a tracer is active
(:mod:`repro.obs.trace`), the run is bracketed by a ``campaign`` span
with one ``stage`` span per stage, a ``round`` span per engine batch
of an adaptive or population stage, and a ``journal`` span per durable
checkpoint append; engine-level ``cache_lookup``/``point``/``simulate``
spans nest inside.
A :class:`repro.obs.progress.ProgressTracker` (created internally unless
one is passed) counts units done/total per stage after every unit, and
an atomically-replaced ``progress.json`` sidecar next to the journal —
the feed for ``repro-bbr top`` — is written when the run starts, at most
once per :data:`SIDECAR_INTERVAL_S` while it runs, and once more on the
way out, however the run ends.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
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
from repro.campaign.vocab import KINDS, StageRun
from repro.exec.engine import Engine, resolve as resolve_engine
from repro.obs.progress import PROGRESS_NAME, ProgressTracker
from repro.obs.trace import resolve as resolve_tracer
from repro.obs.trace import span
from repro.util.jsonfile import write_json_atomic

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
SPEC_FILE_SCHEMA = 1

#: Least time between two ``progress.json`` writes inside a run.  The
#: sidecar is read by people and pollers (``repro-bbr top --follow``
#: refreshes every 2 s; ``campaign status`` calls a sidecar live for
#: ``status.SIDECAR_FRESH_S`` = 300 s) and unit counts come from the
#: journal, so a warm unit — ~100 us of work — does not pay a JSON dump
#: and a rename to announce itself.
SIDECAR_INTERVAL_S = 1.0


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

    Each stage's pending units run as its kind declares
    (:data:`repro.campaign.vocab.KINDS`); under ``stop_after`` a kind
    is handed at most the units that may still be committed — the
    exactly-N contract.  Completion order is the kind's, and does not
    depend on ``engine.jobs`` except within a ``sweep`` stage.
    ``artifacts_dir``, when given, receives the artifacts kinds write
    beside the journal (the merged population ``error_map.json``).
    """
    tracer = resolve_tracer(None)
    skip = frozenset(skip) if skip else frozenset()
    if stop_after is not None and stop_after < 1:
        raise CampaignError(f"stop_after must be >= 1, got {stop_after}")
    run = StageRun(
        spec,
        resolve_engine(engine),
        Path(artifacts_dir) if artifacts_dir is not None else None,
    )
    executed = 0

    todo: List[Unit] = []
    for position, unit in enumerate(units):
        if unit.index != position:  # pragma: no cover - expander invariant
            raise CampaignError(
                f"unit list is not in index order at position {position}"
            )
        if unit.unit_id() not in skip:
            todo.append(unit)

    for stage in spec.stages:
        stage_units = [u for u in todo if u.stage == stage.name]
        if stop_after is not None:
            # Exactly-N: a kind never starts a unit it may not commit.
            stage_units = stage_units[: stop_after - executed]
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
            for unit, rows, wall in KINDS[stage.kind].run(run, stage_units):
                outcome = UnitOutcome(
                    unit_id=unit.unit_id(),
                    index=unit.index,
                    stage=unit.stage,
                    rows=rows,
                    wall_s=wall,
                    from_journal=False,
                )
                executed += 1
                if on_unit is not None:
                    on_unit(outcome)
                yield outcome
                if stop_after is not None and executed >= stop_after:
                    return True
    return False


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
    write_json_atomic(out_dir / SPEC_NAME, payload)


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
    one) counts units done/total per stage, and ``on_progress`` fires
    with it after every journaled unit (the CLI's live ``--progress``
    hook).  The machine-readable ``progress.json`` sidecar is rewritten
    atomically next to the journal at the start, then after a unit only
    when :data:`SIDECAR_INTERVAL_S` has passed since the last write, and
    once at the end — also when the run raises, so the sidecar left
    behind agrees with the journal.  The engine's worker heartbeats are
    wired into the tracker for the run when the engine has no heartbeat
    sink of its own.
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
    sidecar_written = perf_counter()

    def journal_unit(outcome: UnitOutcome) -> None:
        nonlocal done_units, sidecar_written
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
        now = perf_counter()
        if now - sidecar_written >= SIDECAR_INTERVAL_S:
            tracker.write_sidecar(str(sidecar))
            sidecar_written = now
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
        journal.close()
        # The closing write is unconditional and on every exit path:
        # between interval writes the sidecar lags the journal, and a
        # run that raises must not leave it lagging.
        tracker.write_sidecar(str(sidecar))
    wall = perf_counter() - start

    # rows_written is what reached the CSV; an interrupted run reports
    # the rows it accepted and leaves no manifest — only a resumable
    # journal.
    n_rows = sink.rows_seen if interrupted else sink.rows_written
    if not interrupted:
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
        interrupted=interrupted,
        csv_path=None if interrupted else out / spec.csv_name,
    )
