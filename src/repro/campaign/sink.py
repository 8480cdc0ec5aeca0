"""Streaming result sinks: campaign rows hit disk as units finish.

Million-unit campaigns cannot afford the seed pipeline's "collect every
:class:`~repro.campaign.run.UnitOutcome` in a list, write the CSV at the
end" shape — peak memory grew linearly with campaign size and a crash
after hour ten lost the whole CSV.  This module is the bounded-memory
replacement:

* :class:`CsvSink` / :class:`JsonlSink` — incremental writers.  Rows are
  appended (and flushed) as they arrive and are *not* retained; the CSV
  writer reproduces the seed's collect-then-write CSV byte-for-byte
  (``tests/test_sink.py`` keeps that writer as the reference),
  including its first-seen column order.  A row that introduces a
  column the header has not seen triggers a streaming rewrite of the
  file (row-at-a-time through a temp file + ``os.replace``), which
  happens at most once per stage-shaped column change, never per row.
* :class:`CampaignSink` — the unit-order gate.  Outcomes complete out of
  order (a sweep's points in engine completion order, a lock-step
  stage's units in the round each finishes); the final CSV must be in
  *unit* order to stay byte-identical across kill/resume.  The sink
  buffers only the out-of-order frontier (bounded by ``jobs`` in a
  sweep and by the stage's unit count in a lock-step stage, never by
  campaign size) and drains every contiguous run of units to the
  writers the moment its gap closes.

Durability contract (see ``docs/CAMPAIGNS.md``): the checkpoint journal
is the authoritative record — a unit is committed when its journal line
is fsync-ed.  The CSV trails it by at most the in-flight flush, so a
SIGKILL leaves a partial CSV containing exactly the journaled prefix (in
the sequential case: exactly the journaled units).  Resume does not
trust the partial file: it truncates and rebuilds it by streaming the
journal through a fresh sink, which reconciles every kill window —
including a kill between the journal fsync and the CSV flush — and is
why a resumed campaign's final CSV is byte-identical to an
uninterrupted run's.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

__all__ = [
    "CampaignSink",
    "CsvSink",
    "JsonlSink",
    "SinkError",
    "resolve_artifact",
]


class SinkError(RuntimeError):
    """A sink was fed out of contract; the message is one line."""


def resolve_artifact(path: Union[str, Path]) -> Optional[Path]:
    """``path`` if it exists, else its ``.gz`` sibling, else None.

    Long-finished campaigns get gzipped for archival; every artifact
    *reader* (``campaign report``/``status``, ``repro-bbr top``) resolves
    through here so ``results.csv.gz``/``journal.jsonl.gz`` keep working.
    """
    path = Path(path)
    if path.exists():
        return path
    gz = Path(str(path) + ".gz")
    if gz.exists():
        return gz
    return None


class CsvSink:
    """Incremental CSV writer, byte-compatible with the seed writer.

    Columns are learned in first-seen key order, exactly like the
    collect-then-write implementation it replaces.  The header is
    written with the first data row; a later row introducing new
    columns widens the file in place via a streaming rewrite (existing
    rows are padded with empty fields — the same padding ``row.get(col,
    "")`` produced at the end of a batch run).  ``close()`` on a sink
    that never saw a row still writes the (empty) header line the seed
    wrote for a zero-row campaign.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.columns: List[str] = []
        self.rows_written = 0
        self._known: set = set()
        self._handle: Optional[Any] = None
        self._writer: Optional[Any] = None
        self._closed = False

    def _open(self, mode: str) -> None:
        self._handle = open(
            self.path, mode, newline="", encoding="utf-8"
        )
        self._writer = csv.writer(self._handle)

    def _start(self) -> None:
        """Write the header (current columns) into a fresh file."""
        self._open("w")
        self._writer.writerow(self.columns)

    def _widen(self, new_columns: Sequence[str]) -> None:
        """Streaming rewrite: pad every existing row to the new width.

        Row-at-a-time through a sibling temp file, so memory stays flat
        no matter how many rows are already on disk.
        """
        self._handle.flush()
        self._handle.close()
        self._handle = self._writer = None
        pad = [""] * len(new_columns)
        self.columns.extend(new_columns)
        tmp = Path(f"{self.path}.tmp.{os.getpid()}")
        with open(
            self.path, "r", newline="", encoding="utf-8"
        ) as src, open(
            tmp, "w", newline="", encoding="utf-8"
        ) as dst:
            reader = csv.reader(src)
            writer = csv.writer(dst)
            for number, record in enumerate(reader):
                if number == 0:
                    writer.writerow(self.columns)
                else:
                    writer.writerow(record + pad)
        os.replace(tmp, self.path)
        self._open("a")

    def append(self, rows: Iterable[Dict[str, Any]]) -> None:
        """Write ``rows`` now; they are not retained afterwards."""
        if self._closed:
            raise SinkError(f"{self.path}: sink is closed")
        for row in rows:
            new = [key for key in row if key not in self._known]
            if new:
                self._known.update(new)
                if self._handle is None:
                    self.columns.extend(new)
                else:
                    self._widen(new)
            if self._handle is None:
                self._start()
            self._writer.writerow(
                [row.get(column, "") for column in self.columns]
            )
            self.rows_written += 1

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        """Flush, fsync, and close (writing the header if still owed)."""
        if self._closed:
            return
        if self._handle is None:
            self._start()
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self._handle = self._writer = None
        self._closed = True


class JsonlSink:
    """Incremental JSONL writer: one result row per line.

    The row-stream mirror of the CSV — machine-friendly, append-only,
    and (unlike CSV) schema-free, so downstream consumers of a huge
    campaign can tail it without caring about column order.  Key order
    is preserved (no ``sort_keys``), matching the journal encoding.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.rows_written = 0
        self._handle: Optional[Any] = None
        self._closed = False

    def append(self, rows: Iterable[Dict[str, Any]]) -> None:
        if self._closed:
            raise SinkError(f"{self.path}: sink is closed")
        if self._handle is None:
            self._handle = open(self.path, "w", encoding="utf-8")
        for row in rows:
            self._handle.write(
                json.dumps(row, separators=(",", ":"), allow_nan=False)
                + "\n"
            )
            self.rows_written += 1

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._closed:
            return
        if self._handle is None:
            self._handle = open(self.path, "w", encoding="utf-8")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self._handle = None
        self._closed = True


class CampaignSink:
    """Feeds completion-order outcomes to the writers in unit order.

    :meth:`add` accepts ``(unit index, rows)`` in any order; rows are
    handed to every writer as soon as all lower indices have arrived,
    then dropped.  Only the out-of-order frontier is buffered —
    proportional to completion skew (worker count, or the units of one
    lock-step stage), independent of campaign size.  ``rows_seen``
    counts every row accepted
    (including buffered ones, all of which are journaled by the caller);
    ``rows_written`` counts rows actually on disk.
    """

    def __init__(
        self,
        *writers: Any,
        start_index: int = 0,
    ) -> None:
        self.writers = [w for w in writers if w is not None]
        self.rows_seen = 0
        self._pending: Dict[int, Any] = {}
        self._next = start_index

    @property
    def next_index(self) -> int:
        """The lowest unit index not yet written."""
        return self._next

    @property
    def pending_units(self) -> int:
        """Out-of-order outcomes currently buffered."""
        return len(self._pending)

    @property
    def rows_written(self) -> int:
        return self.writers[0].rows_written if self.writers else 0

    def add(self, index: int, rows: Sequence[Dict[str, Any]]) -> None:
        """Accept one unit's rows; drain every now-contiguous unit."""
        if index < self._next or index in self._pending:
            raise SinkError(
                f"unit index {index} was already written "
                f"(next expected: {self._next})"
            )
        self._pending[index] = tuple(rows)
        self.rows_seen += len(rows)
        while self._next in self._pending:
            ready = self._pending.pop(self._next)
            for writer in self.writers:
                writer.append(ready)
            self._next += 1

    def flush(self) -> None:
        for writer in self.writers:
            writer.flush()

    def close(self) -> None:
        """Close the writers.

        Buffered out-of-order rows (possible only when the run was
        interrupted with a gap in front of them) are *not* written —
        they are already safe in the journal, and the resume rebuild
        will place them at their correct offsets.
        """
        for writer in self.writers:
            writer.close()
