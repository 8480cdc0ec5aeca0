"""Checkpoint journal: crash-safe record of completed campaign units.

The journal is a JSONL file (``journal.jsonl`` inside the campaign
output directory).  The first line is a header binding the journal to a
spec fingerprint; every subsequent line records one *completed* unit —
its id, index, stage, output rows, and wall time.  Appends go through
one handle the journal keeps open until :meth:`Journal.close`, and each
is written, flushed and ``fsync``-ed before :meth:`Journal.append`
returns, so after a crash the file contains every unit whose record
returned from it, plus at most one truncated trailing line (the record
being written when the process died).  Loading
tolerates exactly that: an undecodable *final* line is discarded;
corruption anywhere earlier raises :class:`JournalError`, since it means
the file was edited or damaged, not merely interrupted.

Rows are serialized without key sorting.  Insertion order is the CSV
column order, and JSON round-trips floats exactly, so a campaign
finished from a journal writes a byte-identical CSV to one that never
stopped.

Reading is streaming: :meth:`Journal.iter_records` yields one record at
a time from an open handle, so resume and ``status`` over a
million-unit journal never materialize the whole file.
Reads are gzip-transparent — an archived ``journal.jsonl.gz`` resolves
wherever the plain name would — and an append to one is a complete gzip
member of its own, so a reader that opens the file mid-run never meets
an unterminated member.
"""

from __future__ import annotations

import gzip
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Dict, Iterator, Optional, Tuple, Union

from repro import __version__
from repro.obs.export import open_maybe_gzip

__all__ = ["Journal", "JournalError", "JournalRecord"]

JOURNAL_NAME = "journal.jsonl"
JOURNAL_SCHEMA = 1


class JournalError(RuntimeError):
    """The journal file is missing, damaged, or from another campaign."""


@dataclass(frozen=True)
class JournalRecord:
    """One completed unit as persisted in the journal."""

    unit_id: str
    index: int
    stage: str
    rows: Tuple[Dict[str, Any], ...]
    wall_s: float

    def to_line(self) -> str:
        # No sort_keys: row key order is the CSV column order and must
        # survive the round-trip.
        return json.dumps(
            {
                "kind": "unit",
                "unit": self.unit_id,
                "index": self.index,
                "stage": self.stage,
                "rows": list(self.rows),
                "wall_s": self.wall_s,
            },
            separators=(",", ":"),
            allow_nan=False,
        )


class Journal:
    """Append-only checkpoint log for one campaign directory."""

    def __init__(self, path: Union[str, Path]) -> None:
        #: The append handle, opened by the first :meth:`append`.  Set
        #: first: ``__del__`` closes it even when the rest raises.
        self._handle: Optional[IO[bytes]] = None
        self.path = Path(path)
        self._gzip = self.path.suffix == ".gz"
        #: Validated header of the last (streaming) read.
        self._header: Optional[Dict[str, Any]] = None

    @classmethod
    def in_dir(cls, out_dir: Union[str, Path]) -> "Journal":
        """The directory's journal; an archived ``.gz`` one resolves
        when (and only when) the plain file is absent."""
        path = Path(out_dir) / JOURNAL_NAME
        if not path.exists():
            gz = Path(str(path) + ".gz")
            if gz.exists():
                return cls(gz)
        return cls(path)

    def exists(self) -> bool:
        return self.path.exists()

    # -- writing -----------------------------------------------------------

    def create(self, name: str, fingerprint: str) -> None:
        """Start a fresh journal with a header line (fsync-ed)."""
        header = json.dumps(
            {
                "kind": "campaign",
                "schema": JOURNAL_SCHEMA,
                "name": name,
                "fingerprint": fingerprint,
                "version": __version__,
            },
            separators=(",", ":"),
            allow_nan=False,
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(header + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def append(self, record: JournalRecord) -> None:
        """Durably append one completed unit.

        The line is flushed and fsync-ed before returning, so a unit is
        either fully journaled or (after a crash) reproducibly absent —
        its result still sits in the content-addressed cache, making the
        re-run on resume a cache hit, not a re-simulation.  The handle
        is opened by the first append and kept until :meth:`close`; into
        an archived ``.gz`` journal each record goes as one whole gzip
        member.
        """
        data = (record.to_line() + "\n").encode("utf-8")
        if self._gzip:
            data = gzip.compress(data)
        handle = self._handle
        if handle is None:
            handle = self._handle = open(self.path, "ab")
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())

    def close(self) -> None:
        """Release the append handle (idempotent; a later append opens
        a new one).  Nothing is pending: every append was fsync-ed."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def __del__(self) -> None:
        self.close()

    # -- reading -----------------------------------------------------------

    def _lines(self) -> Iterator[Tuple[int, str]]:
        """Stream non-blank ``(line number, line)`` pairs from disk."""
        try:
            handle = open_maybe_gzip(str(self.path), "r")
        except FileNotFoundError:
            raise JournalError(
                f"{self.path}: no checkpoint journal found"
            ) from None
        except OSError as exc:
            raise JournalError(f"{self.path}: cannot read journal: {exc}")
        with handle:
            for number, line in enumerate(handle, start=1):
                line = line.rstrip("\r\n")
                if line.strip():
                    yield number, line

    def read_header(
        self, expect_fingerprint: Optional[str] = None
    ) -> Dict[str, Any]:
        """Parse and validate the header line only (no record scan)."""
        next(self.iter_records(expect_fingerprint), None)
        return self._header  # type: ignore[return-value]

    def iter_records(
        self, expect_fingerprint: Optional[str] = None
    ) -> Iterator[JournalRecord]:
        """Stream completed-unit records row-at-a-time.

        Memory stays flat no matter how long the journal is — this is
        what resume and ``status`` consume.  A final line
        that fails to decode is treated as the torn write of a killed
        process and dropped; anything malformed before the end raises
        :class:`JournalError`.  When ``expect_fingerprint`` is given, a
        header mismatch fails loudly — resuming a directory with a
        *different* spec would silently mix studies.  The validated
        header is kept on ``self._header`` for :meth:`read_header`.
        """
        lines = self._lines()
        first = next(lines, None)
        if first is None:
            raise JournalError(f"{self.path}: journal is empty")
        number, line = first
        torn: Optional[JournalError] = None
        try:
            header = json.loads(line)
            if not isinstance(header, dict):
                raise ValueError("not an object")
        except ValueError as exc:
            # A torn *final* line is tolerated; if anything follows,
            # the damage is mid-file and must be surfaced.
            if next(lines, None) is not None:
                raise JournalError(
                    f"{self.path}:{number}: corrupt journal line: {exc}"
                ) from None
            raise JournalError(
                f"{self.path}: journal has no valid header"
            ) from None
        if header.get("kind") != "campaign":
            raise JournalError(
                f"{self.path}:{number}: first line is not a campaign header"
            )
        if header.get("schema") != JOURNAL_SCHEMA:
            raise JournalError(
                f"{self.path}: journal schema {header.get('schema')!r} "
                f"is not supported (want {JOURNAL_SCHEMA})"
            )
        if (
            expect_fingerprint is not None
            and header.get("fingerprint") != expect_fingerprint
        ):
            raise JournalError(
                f"{self.path}: journal belongs to a different campaign "
                f"spec (fingerprint {header.get('fingerprint')!r}); "
                "refusing to mix studies"
            )
        self._header = header
        for number, line in lines:
            if torn is not None:
                raise torn  # The bad line was not the last one.
            try:
                data = json.loads(line)
                if not isinstance(data, dict):
                    raise ValueError("not an object")
            except ValueError as exc:
                torn = JournalError(
                    f"{self.path}:{number}: corrupt journal line: {exc}"
                )
                continue
            if data.get("kind") != "unit":
                raise JournalError(
                    f"{self.path}:{number}: unexpected record kind "
                    f"{data.get('kind')!r}"
                )
            try:
                rows = tuple(data["rows"])
                record = JournalRecord(
                    unit_id=str(data["unit"]),
                    index=int(data["index"]),
                    stage=str(data["stage"]),
                    rows=rows,
                    wall_s=float(data["wall_s"]),
                )
                for row in rows:
                    if not isinstance(row, dict):
                        raise KeyError("rows must be objects")
            except (KeyError, TypeError, ValueError) as exc:
                raise JournalError(
                    f"{self.path}:{number}: malformed unit record: {exc}"
                ) from None
            yield record
