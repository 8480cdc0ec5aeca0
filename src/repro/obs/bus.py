"""Structured telemetry bus: counters, gauges, timers, and typed events.

Instrumented code throughout both simulator substrates holds an optional
:class:`Telemetry` reference (``obs``).  The convention that keeps the hot
path fast is *absence means disabled*: every instrumentation site guards
with ``if obs is not None`` — a single attribute test — so a run with
telemetry disabled (the default) pays no dict lookups, no allocations,
and no string formatting.  A run with telemetry enabled accumulates
everything in memory; nothing is written unless the caller exports it
(see :mod:`repro.obs.export`).

Four primitives:

* **counters** — monotonically accumulated floats (``count``), e.g.
  ``link.dropped_packets``;
* **gauges**   — sampled values with running min/max/mean (``gauge``),
  e.g. ``link.queue_bytes``;
* **timers**   — accumulated wall-clock durations (``timeit`` /
  ``record_time``), measured with :func:`time.perf_counter`;
* **events**   — typed, timestamped records (``event``), e.g. a BBR
  ``STARTUP → DRAIN`` transition, and periodic **samples** (``sample``),
  the event-stream form of :class:`repro.sim.trace.TraceSample`.

A module-level *default* bus supports instrumenting call chains that do
not thread ``obs`` explicitly (e.g. ``repro-bbr figure --profile``):
:func:`resolve` returns the explicit argument if given, else the default,
else None.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.util.ambient import ProcessDefault

__all__ = [
    "Telemetry",
    "TelemetryEvent",
    "GaugeStat",
    "TimerStat",
    "get_default",
    "set_default",
    "resolve",
    "use",
]


@dataclass
class TelemetryEvent:
    """One typed, timestamped occurrence on the bus.

    ``time`` is *simulation* time in seconds (wall-clock durations belong
    to timers).  ``fields`` carries arbitrary JSON-serializable payload.
    """

    name: str
    time: float
    fields: Dict[str, Any] = field(default_factory=dict)


@dataclass
class GaugeStat:
    """Running statistics over one gauge's samples."""

    last: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    total: float = 0.0
    count: int = 0

    def update(self, value: float) -> None:
        self.last = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (0.0 before any sample)."""
        return self.total / self.count if self.count else 0.0


@dataclass
class TimerStat:
    """Accumulated wall-clock time under one timer name."""

    calls: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    def update(self, elapsed: float) -> None:
        self.calls += 1
        self.total_s += elapsed
        if elapsed > self.max_s:
            self.max_s = elapsed


class Telemetry:
    """An in-memory telemetry bus.

    Args:
        max_events: Optional cap on retained events (and samples,
            independently).  Once reached, further records are counted in
            :attr:`dropped_records` instead of stored, so a pathological
            run cannot exhaust memory.
        sample_interval: When set, simulator front-ends attach periodic
            per-flow state samplers at this period (seconds); None means
            "no periodic sampling", which leaves only counters, gauges,
            timers, and sparse events.
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
        self.gauges: Dict[str, GaugeStat] = {}
        self.timers: Dict[str, TimerStat] = {}
        self.events: List[TelemetryEvent] = []
        self.samples: List[Dict[str, Any]] = []
        self.dropped_records = 0

    # -- counters / gauges -------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0 on first use)."""
        self.counters[name] = self.counters.get(name, 0.0) + n

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0.0 if never counted)."""
        return self.counters.get(name, 0.0)

    def gauge(self, name: str, value: float) -> None:
        """Record one sample of gauge ``name``."""
        stat = self.gauges.get(name)
        if stat is None:
            stat = self.gauges[name] = GaugeStat()
        stat.update(value)

    # -- timers ------------------------------------------------------------

    def record_time(self, name: str, elapsed_s: float) -> None:
        """Accumulate ``elapsed_s`` wall-clock seconds under ``name``."""
        stat = self.timers.get(name)
        if stat is None:
            stat = self.timers[name] = TimerStat()
        stat.update(elapsed_s)

    @contextmanager
    def timeit(self, name: str) -> Iterator[None]:
        """Context manager timing its body with ``perf_counter``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record_time(name, time.perf_counter() - start)

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
            "gauges": {
                name: {
                    "last": g.last,
                    "min": g.min,
                    "max": g.max,
                    "mean": g.mean,
                    "count": g.count,
                }
                for name, g in self.gauges.items()
            },
            "timers": {
                name: {
                    "calls": t.calls,
                    "total_s": t.total_s,
                    "max_s": t.max_s,
                }
                for name, t in self.timers.items()
            },
            "events": len(self.events),
            "samples": len(self.samples),
            "dropped_records": self.dropped_records,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Telemetry counters={len(self.counters)} "
            f"events={len(self.events)} samples={len(self.samples)}>"
        )


#: The process-wide default bus; None means telemetry is disabled.
_DEFAULT = ProcessDefault()

get_default = _DEFAULT.get
set_default = _DEFAULT.set
resolve = _DEFAULT.resolve
use = _DEFAULT.use
