"""Hierarchical wall-clock span tracing (``repro.obs.trace``).

A :class:`Tracer` records *spans* — named wall-clock intervals that nest
(``campaign > stage > point > {cache_lookup, simulate, journal}``) — with
the same absence-means-disabled discipline as :mod:`repro.obs.bus` and
:mod:`repro.check`: every instrumented site holds an optional ``tracer``
and guards with a single ``if tracer is not None`` attribute test, so a
run with tracing disabled (the default) pays nothing.

Enabling mirrors :mod:`repro.check`:

* pass or install a :class:`Tracer` (:func:`set_default` / :func:`use`);
* set ``REPRO_TRACE=1`` in the environment — which is exactly what the
  CLI's ``--spans-out`` flag does, so ``--jobs`` worker
  processes inherit tracing.  Workers record into a fresh local tracer
  and ship their finished spans back with each result; the engine merges
  them parent-side, where each worker's ``pid`` becomes its own lane.

Export is Chrome trace-event JSON (the ``traceEvents`` object form),
loadable in Perfetto or ``chrome://tracing``; ``.json.gz`` paths are
gzip-compressed transparently.  :func:`aggregate_spans` reduces a span
list to per-name total/self wall time — the ``repro-bbr trace report``
table — where *self* time excludes time spent in enclosed child spans
on the same (pid, tid) lane.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.obs.export import open_maybe_gzip
from repro.util.ambient import ProcessDefault

__all__ = [
    "Span",
    "SpanAggregate",
    "Tracer",
    "aggregate_spans",
    "clear_default",
    "enabled_from_env",
    "get_default",
    "read_chrome_trace",
    "render_span_report",
    "resolve",
    "set_default",
    "use",
    "write_chrome_trace",
]

#: Fields every serialized span carries (the worker hand-off format).
_SPAN_KEYS = ("name", "cat", "start_s", "dur_s", "pid", "tid", "args")


@dataclass
class Span:
    """One finished wall-clock interval.

    ``start_s`` is epoch seconds (:func:`time.time`), so spans recorded
    in different processes on the same host share a timebase; ``dur_s``
    is measured with :func:`time.perf_counter` for resolution.
    """

    name: str
    cat: str
    start_s: float
    dur_s: float
    pid: int
    tid: int
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.dur_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "cat": self.cat,
            "start_s": self.start_s,
            "dur_s": self.dur_s,
            "pid": self.pid,
            "tid": self.tid,
            "args": self.args,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(
            name=str(data["name"]),
            cat=str(data.get("cat", "")),
            start_s=float(data["start_s"]),
            dur_s=float(data["dur_s"]),
            pid=int(data["pid"]),
            tid=int(data.get("tid", 0)),
            args=dict(data.get("args", {})),
        )

    def to_chrome_event(self) -> Dict[str, Any]:
        """This span as a Chrome trace-event "complete" (``ph: X``)."""
        event = {
            "name": self.name,
            "cat": self.cat or "repro",
            "ph": "X",
            "ts": self.start_s * 1e6,
            "dur": self.dur_s * 1e6,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.args:
            event["args"] = self.args
        return event


class _OpenSpan:
    """Book-keeping for a span that has begun but not yet ended."""

    __slots__ = ("name", "cat", "args", "start_s", "start_perf")

    def __init__(self, name: str, cat: str, args: Dict[str, Any]) -> None:
        self.name = name
        self.cat = cat
        self.args = args
        self.start_s = time.time()
        self.start_perf = time.perf_counter()


class Tracer:
    """Collects nested spans; thread-safe, bounded, merge-friendly.

    Args:
        max_spans: Cap on retained spans; once reached further spans are
            counted in :attr:`dropped_spans` instead of stored.
    """

    def __init__(self, max_spans: Optional[int] = 1_000_000) -> None:
        if max_spans is not None and max_spans <= 0:
            raise ValueError(
                f"max_spans must be positive or None, got {max_spans}"
            )
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped_spans = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[_OpenSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, cat: str = "", **args: Any) -> Iterator[None]:
        """Record the body as one span; nests via a per-thread stack."""
        open_span = _OpenSpan(name, cat, args)
        stack = self._stack()
        stack.append(open_span)
        try:
            yield
        finally:
            stack.pop()
            self._finish(open_span)

    def _finish(self, open_span: _OpenSpan) -> None:
        dur = time.perf_counter() - open_span.start_perf
        self.add(
            Span(
                name=open_span.name,
                cat=open_span.cat,
                start_s=open_span.start_s,
                dur_s=dur,
                pid=os.getpid(),
                tid=threading.get_ident() & 0xFFFF,
                args=open_span.args,
            )
        )

    def add(self, span: Span) -> None:
        """Append one finished span (bounded by ``max_spans``)."""
        with self._lock:
            if (
                self.max_spans is not None
                and len(self.spans) >= self.max_spans
            ):
                self.dropped_spans += 1
                return
            self.spans.append(span)

    # -- worker hand-off ---------------------------------------------------

    def drain(self) -> List[Dict[str, Any]]:
        """Remove and return all finished spans as picklable dicts.

        This is the worker side of the hand-off: a ``--jobs`` worker
        drains its local tracer after each point and returns the records
        with the result, so the parent can :meth:`merge` them.
        """
        with self._lock:
            spans, self.spans = self.spans, []
        return [span.to_dict() for span in spans]

    def merge(self, records: Iterable[Dict[str, Any]]) -> int:
        """Adopt spans drained from another process; returns the count.

        Each record keeps the pid it was recorded under, so merged
        worker spans render as separate per-worker lanes.
        """
        merged = 0
        for record in records:
            self.add(Span.from_dict(record))
            merged += 1
        return merged

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable summary (span count, drop count)."""
        with self._lock:
            return {
                "spans": len(self.spans),
                "dropped_spans": self.dropped_spans,
            }


# -- aggregation -------------------------------------------------------------


@dataclass
class SpanAggregate:
    """Per-name reduction over a span list."""

    name: str
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0

    def update(self, dur_s: float, self_s: float) -> None:
        self.count += 1
        self.total_s += dur_s
        self.self_s += self_s
        if dur_s > self.max_s:
            self.max_s = dur_s


def aggregate_spans(spans: Sequence[Span]) -> List[SpanAggregate]:
    """Reduce spans to per-name count/total/self/max wall time.

    *Self* time is a span's duration minus the durations of its direct
    children — spans on the same ``(pid, tid)`` lane strictly enclosed
    by it.  Aggregates are returned sorted by descending self time.
    """
    by_name: Dict[str, SpanAggregate] = {}
    lanes: Dict[tuple, List[Span]] = {}
    for span in spans:
        lanes.setdefault((span.pid, span.tid), []).append(span)

    for lane in lanes.values():
        # Parents sort before their children: earlier start first, and
        # at equal starts the longer (enclosing) span first.
        lane.sort(key=lambda s: (s.start_s, -s.dur_s))
        stack: List[List[Any]] = []  # [span, child_total]
        for span in lane:
            while stack and span.start_s >= stack[-1][0].end_s - 1e-9:
                parent, child_total = stack.pop()
                _close(by_name, parent, child_total)
            if stack:
                stack[-1][1] += span.dur_s
            stack.append([span, 0.0])
        while stack:
            parent, child_total = stack.pop()
            _close(by_name, parent, child_total)

    return sorted(by_name.values(), key=lambda a: -a.self_s)


def _close(
    by_name: Dict[str, SpanAggregate], span: Span, child_total: float
) -> None:
    agg = by_name.get(span.name)
    if agg is None:
        agg = by_name[span.name] = SpanAggregate(name=span.name)
    agg.update(span.dur_s, max(0.0, span.dur_s - child_total))


def render_span_report(spans: Sequence[Span]) -> str:
    """The ``repro-bbr trace report`` table: per-span self/total time."""
    lines: List[str] = []
    pids = sorted({span.pid for span in spans})
    lines.append(
        f"{len(spans)} spans from {len(pids)} process(es): "
        + ", ".join(str(pid) for pid in pids)
    )
    header = (
        f"{'span':<24} {'count':>7} {'total_s':>10} "
        f"{'self_s':>10} {'max_s':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for agg in aggregate_spans(spans):
        lines.append(
            f"{agg.name:<24} {agg.count:>7} {agg.total_s:>10.3f} "
            f"{agg.self_s:>10.3f} {agg.max_s:>9.3f}"
        )
    batches: Dict[tuple, List[float]] = {}
    for span in spans:
        if span.name == "point_batch":
            shape = (span.args.get("rows", "?"), span.args.get("n", "?"))
            batches.setdefault(shape, []).append(span.dur_s)
    if batches:
        lines.append("")
        lines.append("vectorized batches (how wide each one was):")
        lines.append(
            f"  {'rows':>7} {'points':>7} {'count':>7} {'total_s':>10}"
        )
        for (rows, n), durs in batches.items():
            lines.append(
                f"  {rows:>7} {n:>7} {len(durs):>7} {sum(durs):>10.3f}"
            )
    return "\n".join(lines)


# -- Chrome trace-event JSON -------------------------------------------------


def write_chrome_trace(
    path: str,
    spans: Sequence[Span],
    main_pid: Optional[int] = None,
) -> int:
    """Write spans as Chrome trace-event JSON; returns the event count.

    The object form (``{"traceEvents": [...]}``) is used; a ``.gz``
    suffix compresses transparently.
    """
    main = main_pid if main_pid is not None else os.getpid()
    events: List[Dict[str, Any]] = []
    for pid in sorted({span.pid for span in spans}):
        label = "main" if pid == main else f"worker-{pid}"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    events.extend(span.to_chrome_event() for span in spans)
    with open_maybe_gzip(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        handle.write("\n")
    return len(events)


def read_chrome_trace(path: str) -> "ChromeTrace":
    """Parse a Chrome trace-event JSON file written by this module.

    Top-level keys other than ``traceEvents`` are ignored, as trace
    viewers ignore them.
    """
    with open_maybe_gzip(path, "r") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise ValueError(
            f"{path}: not a Chrome trace-event object (no traceEvents)"
        )
    events = data["traceEvents"]
    if not isinstance(events, list):
        raise ValueError(f"{path}: traceEvents is not a list")
    spans: List[Span] = []
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"{path}: traceEvents[{i}] is not an object")
        if event.get("ph") != "X":
            continue
        spans.append(
            Span(
                name=str(event["name"]),
                cat=str(event.get("cat", "")),
                start_s=float(event["ts"]) / 1e6,
                dur_s=float(event["dur"]) / 1e6,
                pid=int(event["pid"]),
                tid=int(event.get("tid", 0)),
                args=dict(event.get("args", {})),
            )
        )
    return ChromeTrace(spans=spans)


@dataclass
class ChromeTrace:
    """Parsed contents of one Chrome trace-event JSON file."""

    spans: List[Span] = field(default_factory=list)

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def pids(self) -> List[int]:
        return sorted({span.pid for span in self.spans})


# -- process-wide default ----------------------------------------------------

#: An explicit :func:`set_default` always wins (including an explicit
#: ``None``, which disables tracing even under ``REPRO_TRACE=1``);
#: otherwise the environment decides, with one shared lazily-created
#: tracer per process.
_DEFAULT = ProcessDefault(factory=Tracer, env="REPRO_TRACE")

enabled_from_env = _DEFAULT.enabled_from_env
get_default = _DEFAULT.get
set_default = _DEFAULT.set
clear_default = _DEFAULT.clear
resolve = _DEFAULT.resolve
use = _DEFAULT.use


def span(tracer: Optional[Tracer], name: str, cat: str, **args: Any):
    """``tracer.span(...)``, or a no-op context when tracing is off."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, cat=cat, **args)
