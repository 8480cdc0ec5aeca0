"""Per-scenario-family model-error reports over campaign results.

The paper validates its fluid-model predictions against packet-level
simulation; a campaign that sweeps a ``backend`` axis produces both
sides of that comparison in one ``results.csv``.  This module pairs the
rows up: for every swept combination it computes a *share* metric (by
default BBR's fraction of the aggregate throughput — the quantity the
paper's fairness figures report) per backend, takes the absolute
difference against a reference backend, and aggregates the error by
*scenario family* (the ``aqm`` column when present — drop-tail vs RED
vs CoDel — else the whole campaign).  That is exactly the question the
scenario schema raises: where does the fluid abstraction stay faithful,
and which AQM regimes bend it?

Exposed as ``repro-bbr campaign report`` and writes
``model_error.csv`` next to the campaign's ``results.csv``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.campaign.run import CampaignError, load_campaign
from repro.campaign.sink import resolve_artifact
from repro.util.jsonfile import open_maybe_gzip

#: Metric prefix whose per-CC columns define the share denominator.
SHARE_METRIC = "aggregate_mbps"


@dataclass(frozen=True)
class ErrorRow:
    """One paired comparison: a swept combination under one backend."""

    group: Tuple[Tuple[str, str], ...]  # ((axis, value), ...) sans compare
    family: str
    backend: str
    share: float
    reference_share: float

    @property
    def error(self) -> float:
        """Absolute share error against the reference backend."""
        return abs(self.share - self.reference_share)


@dataclass(frozen=True)
class ModelErrorReport:
    """All paired rows plus the per-family aggregation."""

    rows: Tuple[ErrorRow, ...]
    reference: str
    share_cc: str
    csv_path: Optional[Path] = None

    def families(self) -> List[str]:
        seen: List[str] = []
        for row in self.rows:
            if row.family not in seen:
                seen.append(row.family)
        return seen

    def family_errors(self, family: str) -> List[float]:
        return [row.error for row in self.rows if row.family == family]

    def render(self) -> str:
        lines = [
            f"model error vs backend={self.reference} "
            f"({self.share_cc} share of {SHARE_METRIC})"
        ]
        for family in self.families():
            errors = self.family_errors(family)
            lines.append(
                f"  {family:<10} n={len(errors):<3} "
                f"mean {sum(errors) / len(errors):.4f}  "
                f"max {max(errors):.4f}"
            )
        return "\n".join(lines)


def _iter_results(
    out_dir: str, csv_name: str
) -> Iterator[Dict[str, str]]:
    """Stream result rows one at a time (gzip-transparent).

    Archived campaigns keep ``results.csv.gz``; either spelling
    resolves.  The whole file is never held in memory — the report
    aggregation is incremental, so scoring a million-row campaign
    stays flat.
    """
    nominal = Path(out_dir) / csv_name
    path = resolve_artifact(nominal) or nominal
    try:
        handle = open_maybe_gzip(str(path), "r")
    except OSError as exc:
        raise CampaignError(f"cannot read {path}: {exc}") from None
    seen = 0
    with handle:
        for row in csv.DictReader(handle):
            seen += 1
            yield row
    if not seen:
        raise CampaignError(f"{path}: no result rows")


def _share(row: Dict[str, str], share_cols: Sequence[str], cc: str) -> float:
    total = 0.0
    numerator = 0.0
    for col in share_cols:
        try:
            value = float(row[col])
        except (KeyError, ValueError):
            raise CampaignError(
                f"results row lacks a numeric {col!r} column; "
                f"sweep metrics must include {SHARE_METRIC}:<cc>"
            ) from None
        total += value
        if col.partition(":")[2] == cc:
            numerator = value
    if total <= 0:
        return 0.0
    return numerator / total


def model_error_report(
    out_dir: str,
    compare: str = "backend",
    reference: str = "packet",
    share_cc: str = "bbr",
) -> ModelErrorReport:
    """Pair campaign rows across the ``compare`` axis and score them.

    Args:
        out_dir: Campaign output directory (spec.json + results.csv).
        compare: Axis whose values are compared (default ``backend``).
        reference: The ``compare`` value treated as ground truth.
        share_cc: The CC whose share of the aggregate is scored.
    """
    spec = load_campaign(out_dir)
    if spec.axis(compare) is None:
        raise CampaignError(
            f"campaign {spec.name!r} does not sweep a {compare!r} axis; "
            "nothing to compare"
        )
    share_cols = [
        metric
        for metric in spec.metrics
        if metric.partition(":")[0] == SHARE_METRIC
    ]
    if not any(col.partition(":")[2] == share_cc for col in share_cols):
        raise CampaignError(
            f"campaign {spec.name!r} does not record "
            f"{SHARE_METRIC}:{share_cc}; add it to [metrics] columns"
        )
    axis_names = [axis.name for axis in spec.axes]

    by_group: Dict[Tuple[Tuple[str, str], ...], Dict[str, float]] = {}
    order: List[Tuple[Tuple[str, str], ...]] = []
    for row in _iter_results(out_dir, spec.csv_name):
        backend = row.get(compare, "")
        group = tuple(
            (name, row.get(name, ""))
            for name in axis_names
            if name != compare
        )
        shares = by_group.setdefault(group, {})
        if group not in order:
            order.append(group)
        shares[backend] = _share(row, share_cols, share_cc)

    rows: List[ErrorRow] = []
    for group in order:
        shares = by_group[group]
        if reference not in shares:
            raise CampaignError(
                f"combination {dict(group)} has no "
                f"{compare}={reference!r} row to compare against"
            )
        family = dict(group).get("aqm", "all")
        for backend, share in shares.items():
            if backend == reference:
                continue
            rows.append(
                ErrorRow(
                    group=group,
                    family=str(family),
                    backend=backend,
                    share=share,
                    reference_share=shares[reference],
                )
            )
    if not rows:
        raise CampaignError(
            f"every row is {compare}={reference!r}; nothing to compare"
        )
    csv_path = _write_error_csv(
        Path(out_dir) / "model_error.csv", rows, compare, share_cc
    )
    return ModelErrorReport(
        rows=tuple(rows),
        reference=reference,
        share_cc=share_cc,
        csv_path=csv_path,
    )


def _write_error_csv(
    path: Path,
    rows: Sequence[ErrorRow],
    compare: str,
    share_cc: str,
) -> Path:
    group_cols = [name for name, _value in rows[0].group]
    header = group_cols + [
        compare,
        f"{share_cc}_share",
        f"{share_cc}_share_ref",
        "model_error",
    ]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            values = dict(row.group)
            writer.writerow(
                [values[col] for col in group_cols]
                + [
                    row.backend,
                    repr(row.share),
                    repr(row.reference_share),
                    repr(row.error),
                ]
            )
    return path
