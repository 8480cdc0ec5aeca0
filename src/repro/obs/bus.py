"""Structured telemetry bus: counters, typed events and samples.

Instrumented code throughout both simulator substrates holds an optional
:class:`Telemetry` reference (``obs``).  The convention that keeps the hot
path fast is *absence means disabled*: every instrumentation site guards
with ``if obs is not None`` — a single attribute test — so a run with
telemetry disabled (the default) pays no dict lookups, no allocations,
and no string formatting.  A run with telemetry enabled accumulates
everything in memory; nothing is written unless the caller exports it
(see :mod:`repro.obs.export`).

Three primitives, all about what the simulation *did* (wall time is the
span tracer's, :mod:`repro.obs.trace`):

* **counters** — monotonically accumulated floats (``count``), e.g.
  ``link.dropped_packets``;
* **events**   — typed, timestamped records (``event``), e.g. a BBR
  ``STARTUP → DRAIN`` transition or a CUBIC ``cc.backoff``, and periodic
  per-flow **samples** (``sample``) of a controller's ``cwnd``,
  ``in_flight``, ``pacing_rate`` and ``state``.

A bus records one simulation: it is handed to that run (``run_mix(...,
obs=bus)``, ``repro-bbr simulate --trace-out``), never installed for the
process, so no run records into a bus it was not given.  It is the only
recorder of a run's time series: the packet simulator and the scalar
fluid loop write their samples here at the bus's ``sample_interval``
and their backoffs as events, and readers filter
:attr:`Telemetry.samples` / :meth:`events_named`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["Telemetry", "TelemetryEvent"]


@dataclass
class TelemetryEvent:
    """One typed, timestamped occurrence on the bus.

    ``time`` is *simulation* time in seconds (wall-clock durations belong
    to spans).  ``fields`` carries arbitrary JSON-serializable payload.
    """

    name: str
    time: float
    fields: Dict[str, Any] = field(default_factory=dict)


class Telemetry:
    """An in-memory telemetry bus.

    Args:
        max_events: Optional cap on retained events (and samples,
            independently).  Once reached, further records are counted in
            :attr:`dropped_records` instead of stored, so a pathological
            run cannot exhaust memory.
        sample_interval: When set, the simulators write every flow's
            state to :attr:`samples` at this period (seconds); None
            means "no periodic sampling", which leaves only counters
            and sparse events.
    """

    def __init__(
        self,
        max_events: Optional[int] = 1_000_000,
        sample_interval: Optional[float] = None,
    ) -> None:
        if max_events is not None and max_events <= 0:
            raise ValueError(
                f"max_events must be positive or None, got {max_events}"
            )
        if sample_interval is not None and sample_interval <= 0:
            raise ValueError(
                f"sample_interval must be positive or None, "
                f"got {sample_interval}"
            )
        self.max_events = max_events
        self.sample_interval = sample_interval
        self.counters: Dict[str, float] = {}
        self.events: List[TelemetryEvent] = []
        self.samples: List[Dict[str, Any]] = []
        self.dropped_records = 0

    # -- counters -----------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0 on first use)."""
        self.counters[name] = self.counters.get(name, 0.0) + n

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0.0 if never counted)."""
        return self.counters.get(name, 0.0)

    # -- events / samples ---------------------------------------------------

    def event(self, name: str, time: float, **fields: Any) -> None:
        """Record a typed event at simulation time ``time``."""
        if (
            self.max_events is not None
            and len(self.events) >= self.max_events
        ):
            self.dropped_records += 1
            return
        self.events.append(TelemetryEvent(name=name, time=time, fields=fields))

    def sample(self, time: float, flow_id: int, **fields: Any) -> None:
        """Record one periodic per-flow state snapshot."""
        if (
            self.max_events is not None
            and len(self.samples) >= self.max_events
        ):
            self.dropped_records += 1
            return
        record = {"time": time, "flow_id": flow_id}
        record.update(fields)
        self.samples.append(record)

    # -- introspection ------------------------------------------------------

    def events_named(self, name: str) -> List[TelemetryEvent]:
        """All events with the given name, in record order."""
        return [e for e in self.events if e.name == name]

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable summary of every aggregate on the bus."""
        return {
            "counters": dict(self.counters),
            "events": len(self.events),
            "samples": len(self.samples),
            "dropped_records": self.dropped_records,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Telemetry counters={len(self.counters)} "
            f"events={len(self.events)} samples={len(self.samples)}>"
        )

