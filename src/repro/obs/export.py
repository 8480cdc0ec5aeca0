"""JSONL trace export: one unified stream of samples, events, counters.

The trace file is the one record of an instrumented run: nothing about
the run is written beside it.  The format is line-delimited JSON; every
record carries a ``kind``:

* ``manifest`` — the embedded :class:`repro.obs.manifest.RunManifest`
  (always the first line when present);
* ``sample``   — a periodic per-flow state snapshot
  (:meth:`repro.obs.bus.Telemetry.sample`): ``time``, ``flow_id``,
  then controller fields such as ``cwnd``/``in_flight``/``state``;
* ``event``    — a typed :class:`repro.obs.bus.TelemetryEvent` (``time``,
  ``name``, and the payload nested under ``fields`` so payload keys can
  never collide with the record envelope);
* ``counter``  — one final-value counter (``name``, ``value``), written
  at export time so a trace is self-contained.  When the bus hit its
  ``max_events`` cap, the count of records it dropped is written as the
  counter :data:`DROPPED_RECORDS`, so a truncated trace says so.

Records are time-ordered within each kind but *not* globally merged;
:func:`read_trace` hands back the three streams separately, which is what
:mod:`repro.obs.report` consumes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.bus import Telemetry, TelemetryEvent
from repro.obs.manifest import RunManifest
from repro.util.jsonfile import open_maybe_gzip

__all__ = [
    "DROPPED_RECORDS",
    "TraceData",
    "write_trace",
    "read_trace",
]

#: The counter record that carries :attr:`Telemetry.dropped_records`.
DROPPED_RECORDS = "obs.dropped_records"


@dataclass
class TraceData:
    """Parsed contents of one JSONL trace file."""

    manifest: Optional[RunManifest] = None
    samples: List[Dict[str, Any]] = field(default_factory=list)
    events: List[TelemetryEvent] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)

    def events_named(self, name: str) -> List[TelemetryEvent]:
        """All events with the given name, in record order."""
        return [e for e in self.events if e.name == name]

    def flow_ids(self) -> List[int]:
        """Every flow id seen in samples or events, sorted."""
        ids = {s["flow_id"] for s in self.samples if "flow_id" in s}
        for e in self.events:
            fid = e.fields.get("flow_id")
            if fid is not None:
                ids.add(fid)
        return sorted(ids)

    @property
    def end_time(self) -> float:
        """Largest simulation timestamp in the trace (0.0 when empty)."""
        latest = 0.0
        if self.samples:
            latest = max(latest, max(s["time"] for s in self.samples))
        if self.events:
            latest = max(latest, max(e.time for e in self.events))
        return latest


def write_trace(
    path: str, obs: Telemetry, manifest: Optional[RunManifest] = None
) -> int:
    """Write a unified JSONL trace; returns the number of records written.

    The stream is: manifest (if any), then the bus's periodic samples,
    time-sorted, then all events, then final counter values (plus
    :data:`DROPPED_RECORDS` when the bus dropped any).
    """
    samples = sorted(
        obs.samples, key=lambda s: (s.get("time", 0.0), s.get("flow_id", -1))
    )
    counters = dict(obs.counters)
    if obs.dropped_records:
        counters[DROPPED_RECORDS] = obs.dropped_records

    written = 0
    with open_maybe_gzip(path, "w") as f:
        if manifest is not None:
            f.write(
                json.dumps({"kind": "manifest", **manifest.to_dict()}) + "\n"
            )
            written += 1
        for s in samples:
            f.write(json.dumps({"kind": "sample", **s}) + "\n")
            written += 1
        for e in obs.events:
            record = {
                "kind": "event",
                "name": e.name,
                "time": e.time,
                "fields": e.fields,
            }
            f.write(json.dumps(record) + "\n")
            written += 1
        for name in sorted(counters):
            f.write(
                json.dumps(
                    {"kind": "counter", "name": name, "value": counters[name]}
                )
                + "\n"
            )
            written += 1
    return written


def read_trace(path: str) -> TraceData:
    """Parse a JSONL trace written by :func:`write_trace`."""
    data = TraceData()
    with open_maybe_gzip(path, "r") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: invalid JSON record: {exc}"
                ) from exc
            kind = record.pop("kind", None)
            if kind == "manifest":
                data.manifest = RunManifest.from_dict(record)
            elif kind == "sample":
                data.samples.append(record)
            elif kind == "event":
                name = record.pop("name")
                when = record.pop("time")
                fields = record.pop("fields", record)
                data.events.append(
                    TelemetryEvent(name=name, time=when, fields=fields)
                )
            elif kind == "counter":
                data.counters[record["name"]] = record["value"]
            else:
                raise ValueError(
                    f"{path}:{line_no}: unknown record kind {kind!r}"
                )
    return data
