"""Live campaign/sweep progress: counts, rates, ETA, worker health.

:class:`ProgressTracker` is the one implementation of the progress/ETA
math used everywhere a done/total pair is shown to a human or a machine:

* the ``--progress`` live line on ``simulate``/``figure``/``campaign
  run|resume`` (fed by the :class:`repro.exec.Engine` progress callback
  and per-worker heartbeats);
* the ``progress.json`` sidecar written next to a campaign's checkpoint
  journal (:meth:`ProgressTracker.write_sidecar`);
* ``repro-bbr top`` and ``repro-bbr campaign status --json``, which
  reconstruct a tracker from the journal and call the same
  :func:`eta_seconds` the live path uses.

The point rate is EWMA-smoothed (:attr:`ProgressTracker.ewma_alpha`) so
the ETA does not whipsaw between cache-hit bursts and slow simulated
points; before the first interval completes the cumulative mean rate is
used.  Worker health is a per-pid last-heartbeat age plus max RSS
(:func:`resource.getrusage` in the worker), shipped back with results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from threading import Lock
from typing import Any, Dict, Optional

from repro.util.jsonfile import write_json_atomic

__all__ = [
    "PROGRESS_NAME",
    "PROGRESS_SCHEMA",
    "ProgressTracker",
    "eta_seconds",
    "format_duration",
    "rss_self_kb",
]

PROGRESS_NAME = "progress.json"
PROGRESS_SCHEMA = 1


def format_duration(seconds: Optional[float]) -> str:
    """Compact ``h:mm:ss`` / ``m:ss`` rendering (``?`` when unknown)."""
    if seconds is None or seconds != seconds or seconds == float("inf"):
        return "?"
    total = max(0, int(seconds + 0.5))
    hours, rem = divmod(total, 3600)
    minutes, secs = divmod(rem, 60)
    if hours:
        return f"{hours}:{minutes:02d}:{secs:02d}"
    return f"{minutes}:{secs:02d}"


def eta_seconds(
    done: int,
    total: Optional[int],
    elapsed_s: float,
    rate_per_s: Optional[float] = None,
) -> Optional[float]:
    """Seconds until ``total`` at the given (or implied) rate.

    The single ETA formula shared by the live tracker, ``campaign
    status --json``, and ``repro-bbr top``: with no explicit rate the
    cumulative mean ``done / elapsed`` is used.  None means "cannot
    estimate" (no total, nothing done yet, or a zero rate).
    """
    if total is None or done <= 0 or total <= done:
        return 0.0 if (total is not None and 0 < total <= done) else None
    rate = rate_per_s
    if rate is None:
        rate = done / elapsed_s if elapsed_s > 0 else None
    if rate is None or rate <= 0:
        return None
    return (total - done) / rate


def rss_self_kb() -> int:
    """This process's max RSS in KiB (0 when unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.  Anything implausibly
    # large for a KiB reading is normalized.
    if rss > 1 << 31:
        rss //= 1024
    return int(rss)


@dataclass
class WorkerHealth:
    """Liveness/footprint of one worker process, by pid."""

    pid: int
    last_seen: float  # epoch seconds
    rss_kb: int = 0
    points: int = 0

    def age_s(self, now: Optional[float] = None) -> float:
        return max(0.0, (time.time() if now is None else now) - self.last_seen)


class ProgressTracker:
    """Accumulates progress counts into rates, an ETA, and renderings.

    Args:
        total: Expected number of points/units, or None when unknown.
        label: Short name shown in renderings (figure id, campaign name).
        ewma_alpha: Smoothing factor for the instantaneous rate; 1.0
            means "latest interval only", smaller is smoother.
    """

    def __init__(
        self,
        total: Optional[int] = None,
        label: str = "",
        ewma_alpha: float = 0.3,
    ) -> None:
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(
                f"ewma_alpha must be in (0, 1], got {ewma_alpha}"
            )
        self.total = total
        self.label = label
        self.ewma_alpha = ewma_alpha
        self.done = 0
        self.submitted = 0
        self.hits = 0
        # Result rows streamed to disk so far (campaign sink feed) —
        # a counter, never a buffer: the rows themselves are gone.
        self.rows = 0
        # Engine point-level counters, distinct from done/submitted when
        # the tracked unit is coarser than a point (campaign units).
        self.points_done = 0
        self.points_submitted = 0
        self.workers: Dict[int, WorkerHealth] = {}
        self.stages: Dict[str, Dict[str, int]] = {}
        self._start = time.perf_counter()
        self._start_epoch = time.time()
        self._last_done = 0
        self._last_t = self._start
        self._ewma_rate: Optional[float] = None
        self._lock = Lock()

    # -- feeding -----------------------------------------------------------

    def update(self, done: int, submitted: int, hits: int) -> None:
        """Engine progress callback: cumulative done/submitted/hits."""
        now = time.perf_counter()
        with self._lock:
            self.done = done
            self.submitted = submitted
            self.hits = hits
            delta = done - self._last_done
            dt = now - self._last_t
            if delta > 0 and dt > 0:
                inst = delta / dt
                if self._ewma_rate is None:
                    self._ewma_rate = inst
                else:
                    self._ewma_rate = (
                        self.ewma_alpha * inst
                        + (1.0 - self.ewma_alpha) * self._ewma_rate
                    )
                self._last_done = done
                self._last_t = now

    def update_points(self, done: int, submitted: int, hits: int) -> None:
        """Engine progress callback when the tracked unit is coarser.

        Campaigns track *units* in :meth:`update` but still want the
        engine's point-level cache-hit rate; this records the point
        counters without touching the unit ETA math.
        """
        with self._lock:
            self.points_done = done
            self.points_submitted = submitted
            self.hits = hits

    def heartbeat(self, pid: int, rss_kb: int = 0, points: int = 1) -> None:
        """Record that worker ``pid`` reported in (with its max RSS)."""
        with self._lock:
            health = self.workers.get(pid)
            if health is None:
                health = self.workers[pid] = WorkerHealth(
                    pid=pid, last_seen=time.time()
                )
            else:
                health.last_seen = time.time()
            health.points += points
            if rss_kb:
                health.rss_kb = max(health.rss_kb, rss_kb)

    def stage_progress(self, stage: str, done: int, total: int) -> None:
        """Attach per-stage done/total counts (campaign layer)."""
        with self._lock:
            self.stages[stage] = {"done": done, "total": total}

    def set_rows(self, rows: int) -> None:
        """Record the cumulative result-row count (campaign sink)."""
        with self._lock:
            self.rows = rows

    # -- derived -----------------------------------------------------------

    @property
    def elapsed_s(self) -> float:
        return time.perf_counter() - self._start

    def rate_per_s(self) -> Optional[float]:
        """EWMA points/s; cumulative mean before the first interval."""
        if self._ewma_rate is not None:
            return self._ewma_rate
        elapsed = self.elapsed_s
        if self.done > 0 and elapsed > 0:
            return self.done / elapsed
        return None

    def eta_s(self) -> Optional[float]:
        # Mirror render(): with no declared total, estimate against the
        # submitted frontier (None again when nothing is submitted).
        total = self.total
        if total is None:
            total = self.submitted or None
        return eta_seconds(self.done, total, self.elapsed_s, self.rate_per_s())

    def hit_rate(self) -> float:
        """Cache hits over resolved points (or units when points are
        not tracked separately)."""
        denom = self.points_done or self.done
        return self.hits / denom if denom else 0.0

    # -- output ------------------------------------------------------------

    def render(self, stale_after_s: float = 60.0) -> str:
        """One status line for the live ``--progress`` display."""
        total = self.total if self.total is not None else self.submitted
        rate = self.rate_per_s()
        parts = []
        if self.label:
            parts.append(self.label)
        pct = f" ({self.done / total * 100:.0f}%)" if total else ""
        parts.append(f"{self.done}/{total if total else '?'}{pct}")
        parts.append(f"{self.hits} cached ({self.hit_rate() * 100:.0f}%)")
        parts.append(f"{rate:.2f}/s" if rate is not None else "-/s")
        parts.append(f"eta {format_duration(self.eta_s())}")
        parts.append(f"elapsed {format_duration(self.elapsed_s)}")
        if self.workers:
            now = time.time()
            stale = sum(
                1
                for w in self.workers.values()
                if w.age_s(now) > stale_after_s
            )
            note = f", {stale} stale" if stale else ""
            parts.append(f"workers {len(self.workers)}{note}")
        return " | ".join(parts)

    def snapshot(self) -> Dict[str, Any]:
        """The machine-readable progress payload (``progress.json``)."""
        now = time.time()
        with self._lock:
            return {
                "schema": PROGRESS_SCHEMA,
                "kind": "progress",
                "label": self.label,
                "total": self.total,
                "done": self.done,
                "submitted": self.submitted,
                "cache_hits": self.hits,
                "hit_rate": self.hit_rate(),
                "rows": self.rows,
                "points_done": self.points_done,
                "points_submitted": self.points_submitted,
                "elapsed_s": self.elapsed_s,
                "rate_per_s": self.rate_per_s(),
                "eta_s": self.eta_s(),
                "started_at": self._start_epoch,
                "updated_at": now,
                "stages": {
                    name: dict(counts)
                    for name, counts in self.stages.items()
                },
                "workers": {
                    str(pid): {
                        "last_seen_age_s": round(health.age_s(now), 3),
                        "rss_kb": health.rss_kb,
                        "points": health.points,
                    }
                    for pid, health in self.workers.items()
                },
            }

    def write_sidecar(self, path: str) -> None:
        """Atomically write :meth:`snapshot` to ``path``, so a reader
        (``repro-bbr top`` following a live campaign) never sees a torn
        JSON document."""
        write_json_atomic(path, self.snapshot())
