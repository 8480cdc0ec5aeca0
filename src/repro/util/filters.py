"""Time-windowed min/max filters.

BBR's control loop is built on two windowed estimators: a windowed-max
filter over delivery-rate samples (the bottleneck bandwidth estimate,
window of roughly 10 RTTs) and a windowed-min filter over RTT samples
(``RTT_min``, window of 10 seconds).  These are re-implemented here and
used by both :class:`repro.cc.bbr.BBRv1` and the fluid BBR flow.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple


class WindowedFilter:
    """Track the best value seen within a sliding time window.

    Samples are ``(time, value)`` pairs kept in a monotonic deque, so
    queries are O(1) amortized.  A subclass's ``update(now, value)``
    inserts a sample and returns the current best, with its shadowing
    test written inline (``>=`` for a max, ``<=`` for a min: an equal
    value shadows too), since it runs on BBR's every tick.  The deque
    is ordered by time, so a ``now`` behind the newest sample would
    silently corrupt expiry: ``update`` clamps it to the newest sample
    time (the sanitizer independently flags the non-monotonic event
    loop that would cause one).
    """

    def __init__(self, window: float):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self._samples: Deque[Tuple[float, float]] = deque()
        self._latest = float("-inf")

    def get(self, now: Optional[float] = None) -> Optional[float]:
        """Return the best value in the window, or None if empty.

        Passing ``now`` expires stale samples first.
        """
        if now is not None:
            self._expire(now)
        if not self._samples:
            return None
        return self._samples[0][1]

    def reset(self) -> None:
        """Forget all samples."""
        self._samples.clear()

    def _expire(self, now: float) -> None:
        horizon = now - self.window
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()

    def __len__(self) -> int:
        return len(self._samples)


class WindowedMax(WindowedFilter):
    """Windowed maximum (BBR's bottleneck-bandwidth filter)."""

    def update(self, now: float, value: float) -> float:
        """Insert a sample taken at ``now``; return the window's max."""
        if now < self._latest:
            now = self._latest
        else:
            self._latest = now
        samples = self._samples
        horizon = now - self.window
        while samples and samples[0][0] < horizon:
            samples.popleft()
        while samples and value >= samples[-1][1]:
            samples.pop()
        samples.append((now, value))
        return samples[0][1]


class WindowedMin(WindowedFilter):
    """Windowed minimum (BBR's RTT_min filter)."""

    def update(self, now: float, value: float) -> float:
        """Insert a sample taken at ``now``; return the window's min."""
        if now < self._latest:
            now = self._latest
        else:
            self._latest = now
        samples = self._samples
        horizon = now - self.window
        while samples and samples[0][0] < horizon:
            samples.popleft()
        while samples and value <= samples[-1][1]:
            samples.pop()
        samples.append((now, value))
        return samples[0][1]

