"""Campaign progress inspection: the backend of ``campaign status``.

:func:`campaign_progress` reconstructs a campaign directory's progress
from its durable artifacts — the frozen spec, the checkpoint journal,
and (when a run is live or was recently live) the ``progress.json``
sidecar :func:`repro.campaign.run.run_campaign` rewrites at most once
per ``SIDECAR_INTERVAL_S`` and once more as it exits — which is why unit
counts are taken from the journal and only rate, elapsed time and worker
health from the sidecar.  The ETA comes from the *same*
:func:`repro.obs.progress.eta_seconds` formula the live ``--progress``
display uses: the sidecar's EWMA rate when one is available, the
journal's cumulative mean otherwise.  ``repro-bbr campaign status``
(``--json``, ``--follow``) renders this one dict — there is no second
ETA implementation to drift.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.campaign.expand import expand_units
from repro.campaign.journal import Journal, JournalError
from repro.campaign.run import load_campaign
from repro.obs.progress import (
    PROGRESS_NAME,
    eta_seconds,
    format_duration,
)

__all__ = ["campaign_progress", "render_status"]

STATUS_SCHEMA = 1

#: A sidecar older than this (relative to its own ``updated_at``) is a
#: leftover from a finished/killed run; its EWMA rate is stale and the
#: journal's cumulative mean is the honest estimate.
SIDECAR_FRESH_S = 300.0


def _read_sidecar(path: Path) -> Optional[Dict[str, Any]]:
    """The progress sidecar as a dict, or None when absent/invalid.

    The writer replaces the file atomically, so a partial read means
    "no sidecar", never an error worth surfacing.
    """
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or data.get("kind") != "progress":
        return None
    return data


def campaign_progress(out_dir: Union[str, Path]) -> Dict[str, Any]:
    """Progress snapshot of a campaign directory (possibly mid-run).

    Raises :class:`repro.campaign.run.CampaignError` /
    :class:`repro.campaign.journal.JournalError` when the directory is
    not a campaign or its journal belongs to a different spec.
    """
    out = Path(out_dir)
    spec = load_campaign(out)
    units = expand_units(spec)
    journal = Journal.in_dir(out)

    known = {unit.unit_id() for unit in units}
    total = len(units)
    stage_total: Dict[str, int] = {}
    stage_done: Dict[str, int] = {}
    for unit in units:
        stage_total[unit.stage] = stage_total.get(unit.stage, 0) + 1

    # One streaming pass over the journal — counters only, no record
    # list.  ``status --follow`` over a million-unit journal stays flat
    # in memory.
    done = 0
    rows = 0
    journal_wall = 0.0
    try:
        for record in journal.iter_records(
            expect_fingerprint=spec.fingerprint()
        ):
            if record.unit_id not in known:
                continue
            done += 1
            rows += len(record.rows)
            journal_wall += record.wall_s
            stage_done[record.stage] = (
                stage_done.get(record.stage, 0) + 1
            )
    except JournalError:
        if journal.exists():
            raise
        done = 0
        rows = 0
        journal_wall = 0.0
        stage_done = {}

    stages = {
        name: {"done": stage_done.get(name, 0), "total": count}
        for name, count in stage_total.items()
    }

    # The CSV now exists (partially) *during* a run; the manifest —
    # written only on a clean finish — is the completion marker.
    manifest = out / "manifest.json"
    finished = manifest.exists() or Path(
        str(manifest) + ".gz"
    ).exists()
    state = "complete" if finished and done == total else (
        "resumable" if done < total else "finishing"
    )

    # Rate/elapsed: the live sidecar when fresh, else the journal's
    # summed unit wall time as the cumulative-mean fallback.
    sidecar = _read_sidecar(out / PROGRESS_NAME)
    rate: Optional[float] = None
    hit_rate: Optional[float] = None
    workers: Dict[str, Any] = {}
    elapsed = journal_wall
    sidecar_fresh = False
    if sidecar is not None:
        age = sidecar.get("updated_at")
        if isinstance(age, (int, float)):
            sidecar_fresh = (time.time() - age) < SIDECAR_FRESH_S
        if sidecar_fresh:
            maybe_rate = sidecar.get("rate_per_s")
            if isinstance(maybe_rate, (int, float)) and maybe_rate > 0:
                rate = float(maybe_rate)
            maybe_elapsed = sidecar.get("elapsed_s")
            if isinstance(maybe_elapsed, (int, float)):
                elapsed = float(maybe_elapsed)
            workers = dict(sidecar.get("workers") or {})
        maybe_hits = sidecar.get("hit_rate")
        if isinstance(maybe_hits, (int, float)):
            hit_rate = float(maybe_hits)

    eta = eta_seconds(done, total, elapsed, rate)
    if state == "complete":
        eta = 0.0

    return {
        "schema": STATUS_SCHEMA,
        "kind": "campaign_status",
        "name": spec.name,
        "fingerprint": spec.fingerprint(),
        "state": state,
        "out_dir": str(out),
        "units": {
            "done": done,
            "total": total,
            "remaining": total - done,
        },
        "rows": rows,
        "stages": stages,
        "elapsed_s": elapsed,
        "rate_per_s": rate,
        "eta_s": eta,
        "hit_rate": hit_rate,
        "workers": workers,
        "live": sidecar_fresh,
    }


def render_status(status: Dict[str, Any], description: str = "") -> str:
    """Human rendering of :func:`campaign_progress` (``repro-bbr
    campaign status``), under the spec's ``description``."""
    units = status["units"]
    pct = (
        f" ({units['done'] / units['total'] * 100:.0f}%)"
        if units["total"]
        else ""
    )
    lines = [
        f"campaign '{status['name']}' ({status['state']})"
        + (" [live]" if status.get("live") else "")
    ]
    if description:
        lines.append(f"  {description}")
    lines += [
        f"  fingerprint: {status['fingerprint']}",
        f"  units: {units['done']}/{units['total']} completed{pct}, "
        f"{status['rows']} rows journaled",
    ]
    for name, counts in status["stages"].items():
        lines.append(
            f"  stage {name}: {counts['done']}/{counts['total']}"
        )
    rate = status.get("rate_per_s")
    hit_rate = status.get("hit_rate")
    lines.append(
        "  rate: "
        + (f"{rate:.2f}/s" if rate else "-")
        + " | hit-rate: "
        + (f"{hit_rate * 100:.0f}%" if hit_rate is not None else "-")
        + f" | eta {format_duration(status.get('eta_s'))}"
        + f" | elapsed {format_duration(status.get('elapsed_s'))}"
    )
    for pid, health in sorted(status.get("workers", {}).items()):
        age = health.get("last_seen_age_s")
        rss = health.get("rss_kb", 0)
        points = health.get("points", 0)
        lines.append(
            f"  worker {pid}: {points} point(s), "
            f"rss {rss // 1024} MiB, seen {age:.0f}s ago"
        )
    if status["state"] != "complete":
        lines.append(
            f"  resume with: repro-bbr campaign resume {status['out_dir']}"
        )
    return "\n".join(lines)
