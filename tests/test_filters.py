"""Windowed min/max filters (BBR's estimators)."""

import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.filters import WindowedMax, WindowedMin

#: One filter step: a clock move (negative = a regressed clock), the
#: window in force (FluidBBR resizes it every tick), a sample value
#: from a small set so equal values are common, and whether the step
#: is an ``update`` or a clocked ``get``.
steps = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 2.5, -0.5, -3.0]),
        st.sampled_from([0.3, 1.0, 2.0, 5.0]),
        st.integers(min_value=0, max_value=4).map(float),
        st.booleans(),
    ),
    min_size=1,
    max_size=80,
)


@pytest.mark.parametrize(
    "cls, pick, beats",
    [(WindowedMax, max, operator.gt), (WindowedMin, min, operator.lt)],
)
@given(stream=steps)
def test_filter_equals_brute_force_window(cls, pick, beats, stream):
    """Every step against a brute force over every unexpired sample.

    Each step expires the samples its horizon (its clock minus the
    window then in force) has passed; an update's clock is first
    clamped to the newest sample's.  Of the samples left, the deque
    holds those no later sample equals or beats.
    """
    f = cls(1.0)
    live = []  # (time, value) of every sample not yet expired
    latest = float("-inf")  # the newest sample's (clamped) time
    now = 0.0
    for move, window, value, is_update in stream:
        now += move
        f.window = window
        at = max(now, latest) if is_update else now
        live = [(t, v) for t, v in live if t >= at - window]
        if is_update:
            latest = at
            live.append((at, value))
            got = f.update(now, value)
            assert got == f.get()
        else:
            got = f.get(now)
        assert got == (pick(v for _, v in live) if live else None)
        kept = [
            v
            for k, (_, v) in enumerate(live)
            if all(beats(v, later) for _, later in live[k + 1:])
        ]
        assert len(f) == len(kept)


class TestWindowedMax:
    def test_tracks_maximum(self):
        f = WindowedMax(10.0)
        assert f.update(0.0, 5.0) == 5.0
        assert f.update(1.0, 3.0) == 5.0
        assert f.update(2.0, 7.0) == 7.0

    def test_expires_old_samples(self):
        f = WindowedMax(10.0)
        f.update(0.0, 100.0)
        f.update(5.0, 1.0)
        # At t=11 the 100 sample has left the window.
        assert f.update(11.0, 2.0) == 2.0

    def test_get_without_now_does_not_expire(self):
        f = WindowedMax(10.0)
        f.update(0.0, 9.0)
        assert f.get() == 9.0

    def test_get_with_now_expires(self):
        f = WindowedMax(10.0)
        f.update(0.0, 9.0)
        assert f.get(now=20.0) is None

    def test_empty_returns_none(self):
        assert WindowedMax(1.0).get() is None

    def test_reset(self):
        f = WindowedMax(10.0)
        f.update(0.0, 5.0)
        f.reset()
        assert f.get() is None
        assert len(f) == 0

    def test_monotone_deque_stays_small(self):
        f = WindowedMax(100.0)
        for i in range(1000):
            f.update(i * 0.01, 1000.0 - i)
        # Decreasing samples: all retained (each could become the max).
        assert len(f) == 1000
        f.reset()
        for i in range(1000):
            f.update(i * 0.01, float(i))
        # Increasing samples: only the newest survives.
        assert len(f) == 1

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            WindowedMax(0.0)


class TestWindowedMin:
    def test_tracks_minimum(self):
        f = WindowedMin(10.0)
        assert f.update(0.0, 5.0) == 5.0
        assert f.update(1.0, 8.0) == 5.0
        assert f.update(2.0, 2.0) == 2.0

    def test_expiry_reveals_recent_min(self):
        f = WindowedMin(10.0)
        f.update(0.0, 0.040)
        f.update(5.0, 0.120)
        f.update(12.0, 0.100)
        # The 40 ms sample expired; min of the rest is 100 ms.
        assert f.get(now=12.0) == pytest.approx(0.100)

    def test_mutable_window(self):
        f = WindowedMin(10.0)
        f.update(0.0, 1.0)
        f.window = 0.5
        assert f.get(now=1.0) is None


class TestNonMonotonicClock:
    def test_regressed_time_is_clamped(self):
        f = WindowedMax(10.0)
        f.update(5.0, 1.0)
        # A sample 'from the past' must not corrupt the time-ordered
        # deque; it is treated as arriving at the newest known time.
        f.update(3.0, 2.0)
        assert f.get() == 2.0
        assert all(t == 5.0 for t, _ in f._samples)

    def test_clamped_sample_expires_with_the_window(self):
        f = WindowedMin(10.0)
        f.update(5.0, 9.0)
        f.update(1.0, 4.0)  # Clamped to t=5.
        assert f.update(14.0, 8.0) == 4.0   # Still inside the window.
        assert f.update(15.1, 8.0) == 8.0   # Expired with the t=5 batch.

    def test_forward_time_still_advances(self):
        f = WindowedMax(10.0)
        f.update(3.0, 1.0)
        f.update(5.0, 2.0)
        assert f._latest == 5.0
