"""Vectorized per-tick control-law kernels: arrays of flows at once.

Each class here is the column-array counterpart of one adapter in
:mod:`repro.fluidsim.flows`: where ``FluidCubic.tick`` updates one
Python object, :class:`VecCubic.tick` updates every CUBIC flow in a
batch with masked numpy expressions.  The contract is *bitwise*
equivalence, not approximation: every expression mirrors the scalar
adapter's association order exactly, power functions go through the
same :mod:`repro.fluidsim.mathops` kernels, and state machines become
masked updates applied in the scalar adapter's statement order.  The
parity suite (``tests/test_fluid_vec.py``) holds both substrates to
identical trajectories.

Rules that keep the mirror exact:

* masked-off rows may compute garbage (division by zero, NaN
  comparisons) — it is never written back (every state write is masked)
  and :meth:`repro.fluidsim.vec.VecFluidSim.run` silences the floating-
  point warnings once, around the whole tick loop, not per kernel call;
* optional scalar state (``w_max``, ``epoch_start``, ``probe_rtt_until``,
  monitor-interval start, the loss-gate timestamp) is NaN-encoded;
* windowed filters are ring buffers with monotonic-deque semantics
  matching :class:`repro.util.filters.WindowedFilter` pop-for-pop.

Kernels do not emit per-flow telemetry events (``cc.backoff``,
``cc.state``): the vectorized substrate trades per-flow event streams
for throughput, and the simulator-level counters and samples remain.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cc.laws import bbr as bbr_laws
from repro.cc.laws import bbr2 as bbr2_laws
from repro.cc.laws import copa as copa_laws
from repro.cc.laws import cubic as cubic_laws
from repro.cc.laws import reno as reno_laws
from repro.cc.laws import vegas as vegas_laws
from repro.cc.laws import vivace as vivace_laws
from repro.cc.laws.base import (
    INITIAL_CWND_SEGMENTS,
    MIN_CWND_SEGMENTS,
)
from repro.fluidsim import mathops
from repro.fluidsim.mathops import np

_GAIN_CYCLE = np.array(bbr_laws.GAIN_CYCLE)


class TickState:
    """One tick's observations, as global per-flow column arrays.

    The vectorized analogue of :class:`repro.fluidsim.core.TickContext`:
    every attribute is a length-``n_flows`` float array (``active`` is
    bool), indexed by global flow row.  ``inflight`` is the *state*
    array kernels own — the simulator's working copy (trimmed by drops)
    lives in :class:`repro.fluidsim.vec.VecFluidSim`, exactly like the
    scalar loop's ``inflights`` list is distinct from ``flow.inflight``.
    """

    __slots__ = (
        "now",
        "dt",
        "throughput",
        "rtt_measured",
        "queue_delay",
        "lost_bytes",
        "active",
        "inflight",
    )

    def __init__(self, n: int) -> None:
        self.now = np.zeros(n)
        self.dt = np.zeros(n)
        self.throughput = np.zeros(n)
        self.rtt_measured = np.zeros(n)
        self.queue_delay = np.zeros(n)
        self.lost_bytes = np.zeros(n)
        self.active = np.zeros(n, dtype=bool)
        self.inflight = np.zeros(n)


class VecWindowedFilter:
    """Row-parallel sliding-window best-value filter.

    The vectorized :class:`repro.util.filters.WindowedFilter`: one
    monotonic deque per row, stored as ring buffers in one flat array
    with absolute int64 head/tail counters.  Each row has its *own*
    capacity (a power of two, so wrapping is a per-row bitmask) and
    its own base offset: a row whose window holds 60 samples does not
    pay for a batch-mate whose window holds 800.  ``update`` expires
    stale heads, discards tail entries shadowed by the new sample,
    pushes, and returns the per-row best.  Shadow removal exploits the
    deque invariant — the live values are strictly ordered
    best-to-worst from head to tail — so the shadowed entries form a
    suffix found with one *batched binary search* (a handful of
    full-width ops) instead of the scalar's pop-at-a-time loop, whose
    worst row would otherwise gate every row's progress.  The
    surviving entries, and therefore the returned estimates, match the
    scalar deque bitwise.

    Args:
        depth: Per row, the number of samples the ring must hold; a
            caller that knows its window passes the bound and never
            reallocates.  A row that fills up regardless doubles (only
            it — see :meth:`_grow`), so a wrong bound costs a relayout,
            never a sample.
        is_max: Max filter (``>=`` shadows) or min filter (``<=``).

    The scalar filter clamps non-monotonic clocks; the fluid tick loop
    only ever feeds monotonic times, so the clamp is omitted here.
    """

    def __init__(self, depth: np.ndarray, is_max: bool) -> None:
        n = len(depth)
        self.n = n
        self.is_max = is_max
        self.head = np.zeros(n, dtype=np.int64)
        self.tail = np.zeros(n, dtype=np.int64)
        #: Times the storage was re-laid out because a row filled up.
        self.reallocations = 0
        # Smallest power of two >= depth (and >= 2), per row.
        cap = 1 << np.frexp(np.maximum(depth, 2) - 1)[1].astype(np.int64)
        self._layout(cap)
        # Scratch buffers: update() runs every tick, so its index
        # arithmetic writes into preallocated arrays (``out=``) rather
        # than allocating ~a dozen temporaries per search iteration.
        self._i1 = np.zeros(n, dtype=np.int64)
        self._i2 = np.zeros(n, dtype=np.int64)
        self._i3 = np.zeros(n, dtype=np.int64)
        self._lo = np.zeros(n, dtype=np.int64)
        self._count = np.zeros(n, dtype=np.int64)
        self._f1 = np.zeros(n)
        self._m1 = np.zeros(n, dtype=bool)
        self._m2 = np.zeros(n, dtype=bool)
        self._m3 = np.zeros(n, dtype=bool)

    def _layout(self, cap: np.ndarray) -> None:
        """Flat storage for per-row capacities ``cap``: row ``r`` owns
        ``[base[r], base[r] + cap[r])`` and absolute position ``k`` of
        its deque lives at ``base[r] + (k & wrap[r])``."""
        self.cap = cap
        self._wrap = cap - 1
        self._base = np.cumsum(cap) - cap
        total = int(cap.sum())
        self.times = np.zeros(total)
        self.values = np.zeros(total)

    def _grow(self, full: np.ndarray) -> None:
        """Double the capacity of the ``full`` rows, and only theirs.

        Head and tail are absolute counters, so a live entry keeps its
        position ``k``; only where ``k`` lands in the flat storage
        changes.  Every row's live entries move in one gather/scatter.
        """
        times, values = self.times, self.values
        base, wrap = self._base, self._wrap
        count = self.tail - self.head
        row = np.repeat(np.arange(self.n), count)
        first = np.cumsum(count) - count
        k = self.head[row] + (np.arange(len(row)) - first[row])
        src = base[row] + (k & wrap[row])
        self._layout(np.where(full, self.cap * 2, self.cap))
        dst = self._base[row] + (k & self._wrap[row])
        self.times[dst] = times[src]
        self.values[dst] = values[src]
        self.reallocations += 1

    def update(
        self,
        mask: np.ndarray,
        now: np.ndarray,
        value: np.ndarray,
        window: np.ndarray,
    ) -> np.ndarray:
        """Push ``value`` at ``now`` for masked rows; return the best."""
        base, wrap = self._base, self._wrap
        head, tail = self.head, self.tail
        idx, mid = self._i1, self._i2
        f1, stale, cut, exists = self._f1, self._m1, self._m2, self._m3
        horizon = now - window
        while True:  # expire stale heads (amortized: one per push)
            np.bitwise_and(head, wrap, out=idx)
            np.add(idx, base, out=idx)
            self.times.take(idx, out=f1)
            np.less(f1, horizon, out=stale)
            np.less(head, tail, out=cut)  # has entries
            np.logical_and(stale, cut, out=stale)
            np.logical_and(stale, mask, out=stale)
            if not np.count_nonzero(stale):
                break
            head += stale
        # New tail by binary search: live values run strictly best-to-
        # worst from head, so the entries the new sample does not
        # shadow are exactly a prefix.  Its length is built bit by bit,
        # highest first: ``lo + step`` entries survive iff that many
        # exist and the last of them still beats the sample (samples
        # are finite, so "not shadowed" is a strict comparison).  The
        # trip count is the deepest row's bit length for every row, so
        # no per-row "still searching" mask is needed.
        lo, count, last = self._lo, self._count, self._i3
        lo.fill(0)
        np.subtract(tail, head, out=count)
        np.subtract(head, 1, out=idx)  # the j-th entry sits at head-1+j
        step = (1 << int(count.max()).bit_length()) >> 1
        while step:
            np.add(lo, step, out=mid)
            np.add(idx, mid, out=last)
            np.bitwise_and(last, wrap, out=last)
            np.add(last, base, out=last)
            self.values.take(last, out=f1)
            if self.is_max:
                np.less(value, f1, out=cut)
            else:
                np.greater(value, f1, out=cut)
            np.less_equal(mid, count, out=exists)
            np.logical_and(cut, exists, out=cut)
            np.copyto(lo, mid, where=cut)
            step >>= 1
        np.add(head, lo, out=idx)
        np.copyto(tail, idx, where=mask)
        np.subtract(tail, head, out=idx)
        np.greater_equal(idx, self.cap, out=cut)
        if np.count_nonzero(cut):
            self._grow(cut)
            base, wrap = self._base, self._wrap
        np.bitwise_and(tail, wrap, out=idx)
        np.add(idx, base, out=idx)
        if np.count_nonzero(mask) == self.n:
            self.times[idx] = now
            self.values[idx] = value
            tail += 1
        else:
            sel = idx[mask]
            self.times[sel] = now[mask]
            self.values[sel] = value[mask]
            tail += mask
        np.bitwise_and(head, wrap, out=idx)
        np.add(idx, base, out=idx)
        return self.values.take(idx)

    def get(self) -> np.ndarray:
        """Per-row best in window (0.0 for empty rows), no expiry —
        matching ``WindowedFilter.get()`` without a clock."""
        best = self.values.take(self._base + (self.head & self._wrap))
        return np.where(self.tail > self.head, best, 0.0)


def _pop_kwargs(
    name: str, kwargs: Dict[str, object], allowed: Sequence[str]
) -> None:
    unknown = set(kwargs) - set(allowed)
    if unknown:
        raise TypeError(
            f"{name} fluid flow got unexpected keyword arguments "
            f"{sorted(unknown)}; allowed: {sorted(allowed)}"
        )


class VecKernel:
    """Base: one congestion-control law over a row subset of the batch.

    Args:
        rows: Global flow indices (into the :class:`TickState` arrays)
            this kernel owns, ascending.
        rtt: Base RTT per row, seconds.
        mss: Segment size per row, bytes (float).
        cc_kwargs: Per-row constructor keyword dicts, mirroring the
            scalar adapters' signatures (unknown keys raise TypeError).
        rtt_ticks: Per row, an upper bound on the ticks one measured
            RTT spans: base RTT plus a full buffer drained at the link's
            lowest capacity, over the tick length.
        steps: Per row, the ticks its point runs.  Together they bound
            how many per-tick samples a time window can ever hold.
    """

    name = "fluid-vec"
    loss_based = True
    _allowed_kwargs: Sequence[str] = ()

    def __init__(
        self,
        rows: np.ndarray,
        rtt: np.ndarray,
        mss: np.ndarray,
        cc_kwargs: Sequence[Dict[str, object]],
        rtt_ticks: np.ndarray,
        steps: np.ndarray,
    ) -> None:
        for kwargs in cc_kwargs:
            _pop_kwargs(self.name, kwargs, self._allowed_kwargs)
        self.rows = rows
        self.n = len(rows)
        self.rtt = rtt
        self.mss = mss
        self.min_inflight = MIN_CWND_SEGMENTS * mss
        self.initial_inflight = np.asarray(
            INITIAL_CWND_SEGMENTS * mss, dtype=np.float64
        )
        # CongestionEventGate, NaN-encoded: admit when no prior event or
        # at least one (last-measured) RTT has passed since the last.
        self._gate_last = np.full(self.n, np.nan)
        self._last_rtt = rtt.copy()

    def _admit(self, now: np.ndarray, mask: np.ndarray) -> np.ndarray:
        ok = mask & (
            np.isnan(self._gate_last)
            | (now - self._gate_last >= self._last_rtt)
        )
        np.copyto(self._gate_last, now, where=ok)
        return ok

    def tick(self, state: TickState) -> None:
        raise NotImplementedError

    def on_drop(
        self, state: TickState, dropped: np.ndarray, mask: np.ndarray
    ) -> None:
        """Physical drop of fluid (loss-agnostic flows just lose bytes)."""

    def on_loss(self, state: TickState, victims: np.ndarray) -> None:
        """Congestion backoff for masked victim rows (gate applies)."""

    def state_labels(self) -> Optional[List[str]]:
        """Per-row state-machine labels for sampling; None if stateless."""
        return None


class VecReno(VecKernel):
    """Vectorized :class:`repro.fluidsim.flows.FluidReno`."""

    name = "reno"
    loss_based = True

    def __init__(self, rows, rtt, mss, cc_kwargs, rtt_ticks, steps) -> None:
        super().__init__(rows, rtt, mss, cc_kwargs, rtt_ticks, steps)
        self.in_slow_start = np.ones(self.n, dtype=bool)

    def tick(self, state: TickState) -> None:
        idx = self.rows
        act = state.active[idx]
        if not np.count_nonzero(act):
            return
        rttm = state.rtt_measured[idx]
        dt = state.dt[idx]
        w = state.inflight[idx]
        self._last_rtt = np.where(act, rttm, self._last_rtt)
        grown = np.where(
            self.in_slow_start,
            w * mathops.exp2(dt / rttm),
            w + self.mss * dt / rttm,
        )
        state.inflight[idx] = np.where(act, grown, w)

    def on_loss(self, state: TickState, victims: np.ndarray) -> None:
        idx = self.rows
        hit = victims[idx]
        if not np.count_nonzero(hit):
            return
        adm = self._admit(state.now[idx], hit)
        w = state.inflight[idx]
        cut = np.maximum(w * reno_laws.BETA, self.min_inflight)
        state.inflight[idx] = np.where(adm, cut, w)
        self.in_slow_start = np.where(adm, False, self.in_slow_start)


class VecCubic(VecKernel):
    """Vectorized :class:`repro.fluidsim.flows.FluidCubic`."""

    name = "cubic"
    loss_based = True
    _allowed_kwargs = ("fast_convergence",)

    def __init__(self, rows, rtt, mss, cc_kwargs, rtt_ticks, steps) -> None:
        super().__init__(rows, rtt, mss, cc_kwargs, rtt_ticks, steps)
        self.fast_convergence = np.array(
            [bool(k.get("fast_convergence", True)) for k in cc_kwargs]
        )
        self.in_slow_start = np.ones(self.n, dtype=bool)
        self.w_max_pkts = np.full(self.n, np.nan)
        self.epoch_start = np.full(self.n, np.nan)
        self.k = np.zeros(self.n)

    def tick(self, state: TickState) -> None:
        idx = self.rows
        act = state.active[idx]
        if not np.count_nonzero(act):
            return
        now = state.now[idx]
        rttm = state.rtt_measured[idx]
        thr = state.throughput[idx]
        dt = state.dt[idx]
        w = state.inflight[idx]
        np.copyto(self._last_rtt, rttm, where=act)
        ca = act & ~self.in_slow_start
        begin = ca & np.isnan(self.epoch_start)
        if np.count_nonzero(begin):
            np.copyto(self.epoch_start, now, where=begin)
            cwnd_seg = w / self.mss
            anchor = begin & (
                np.isnan(self.w_max_pkts) | (self.w_max_pkts < cwnd_seg)
            )
            np.copyto(self.w_max_pkts, cwnd_seg, where=anchor)
            np.copyto(self.k, 0.0, where=anchor)
            rebase = begin & ~anchor
            if np.count_nonzero(rebase):
                # cubic_k is elementwise, so computing it on just the
                # rebasing rows matches the full-width np.where bitwise
                # while skipping np.power everywhere else.
                self.k[rebase] = mathops.cubic_k(self.w_max_pkts[rebase])
        t = now - self.epoch_start
        target_pkts = mathops.cubic_window(t, self.k, self.w_max_pkts)
        target = np.maximum(target_pkts * self.mss, self.min_inflight)
        max_growth = np.maximum(thr * dt, self.mss * dt / rttm)
        grown = np.minimum(target, w + max_growth)
        np.copyto(grown, w, where=~ca)
        ss = act & self.in_slow_start
        if np.count_nonzero(ss):
            np.copyto(grown, w * mathops.exp2(dt / rttm), where=ss)
        state.inflight[idx] = grown

    def on_loss(self, state: TickState, victims: np.ndarray) -> None:
        idx = self.rows
        hit = victims[idx]
        if not np.count_nonzero(hit):
            return
        adm = self._admit(state.now[idx], hit)
        if not np.count_nonzero(adm):
            return
        w = state.inflight[idx]
        cwnd_seg = w / self.mss
        shrink = (
            self.fast_convergence
            & ~np.isnan(self.w_max_pkts)
            & (cwnd_seg < self.w_max_pkts)
        )
        new_w_max = np.where(
            shrink,
            cwnd_seg * (2.0 - cubic_laws.BETA_CUBIC) / 2.0,
            cwnd_seg,
        )
        np.copyto(self.w_max_pkts, new_w_max, where=adm)
        self.k[adm] = mathops.cubic_k(self.w_max_pkts[adm])
        cut = np.maximum(w * cubic_laws.BETA_CUBIC, self.min_inflight)
        np.copyto(w, cut, where=adm)
        state.inflight[idx] = w
        np.copyto(self.epoch_start, np.nan, where=adm)
        np.copyto(self.in_slow_start, False, where=adm)


class VecVegas(VecKernel):
    """Vectorized :class:`repro.fluidsim.flows.FluidVegas`."""

    name = "vegas"
    loss_based = True

    def __init__(self, rows, rtt, mss, cc_kwargs, rtt_ticks, steps) -> None:
        super().__init__(rows, rtt, mss, cc_kwargs, rtt_ticks, steps)
        self.base_rtt = rtt.copy()
        self.in_slow_start = np.ones(self.n, dtype=bool)

    def tick(self, state: TickState) -> None:
        idx = self.rows
        act = state.active[idx]
        if not np.count_nonzero(act):
            return
        rttm = state.rtt_measured[idx]
        dt = state.dt[idx]
        w = state.inflight[idx]
        self._last_rtt = np.where(act, rttm, self._last_rtt)
        self.base_rtt = np.where(
            act, np.minimum(self.base_rtt, rttm), self.base_rtt
        )
        # vegas_laws.queued_packets; base_rtt is finite and rttm > 0
        # on the fluid substrate, so the degenerate guard is moot.
        expected = w / self.base_rtt
        actual = w / rttm
        diff = (expected - actual) * self.base_rtt / self.mss
        per_rtt = self.mss * dt / rttm
        was_ss = self.in_slow_start.copy()
        ss = act & was_ss
        leave = ss & (diff > vegas_laws.GAMMA_PACKETS)
        self.in_slow_start = np.where(leave, False, self.in_slow_start)
        stay = ss & ~leave
        w_ss = w * mathops.exp2(dt / (2 * rttm))
        # Exiting slow start falls through to the CA rules this tick.
        ca = act & (~was_ss | leave)
        inc = ca & (diff < vegas_laws.ALPHA_PACKETS)
        dec = ca & (diff > vegas_laws.BETA_PACKETS)
        grown = np.where(
            stay,
            w_ss,
            np.where(
                inc,
                w + per_rtt,
                np.where(
                    dec,
                    np.maximum(w - per_rtt, self.min_inflight),
                    w,
                ),
            ),
        )
        state.inflight[idx] = grown

    def on_loss(self, state: TickState, victims: np.ndarray) -> None:
        idx = self.rows
        hit = victims[idx]
        if not np.count_nonzero(hit):
            return
        adm = self._admit(state.now[idx], hit)
        self.in_slow_start = np.where(adm, False, self.in_slow_start)
        w = state.inflight[idx]
        cut = np.maximum(w * vegas_laws.LOSS_BETA, self.min_inflight)
        state.inflight[idx] = np.where(adm, cut, w)


class VecCopa(VecKernel):
    """Vectorized :class:`repro.fluidsim.flows.FluidCopa`."""

    name = "copa"
    loss_based = True
    _allowed_kwargs = ("delta",)

    def __init__(self, rows, rtt, mss, cc_kwargs, rtt_ticks, steps) -> None:
        super().__init__(rows, rtt, mss, cc_kwargs, rtt_ticks, steps)
        deltas = [
            float(k.get("delta", copa_laws.DEFAULT_DELTA)) for k in cc_kwargs
        ]
        for delta in deltas:
            if delta <= 0:
                raise ValueError(f"delta must be positive, got {delta}")
        self.delta = np.array(deltas)
        # The 10 s window bounds nothing useful (2 000+ ticks): rows
        # start small and the ones whose RTT ramps that long grow.
        self.rtt_min_filter = VecWindowedFilter(
            np.full(self.n, 16), is_max=False
        )
        self._rtt_min_window = np.full(self.n, copa_laws.RTT_MIN_WINDOW)
        self.velocity = np.ones(self.n)
        self.direction = np.zeros(self.n)
        self.same_direction = np.zeros(self.n, dtype=np.int64)
        self.next_velocity_update = np.zeros(self.n)

    def tick(self, state: TickState) -> None:
        idx = self.rows
        act = state.active[idx]
        if not np.count_nonzero(act):
            return
        now = state.now[idx]
        rttm = state.rtt_measured[idx]
        thr = state.throughput[idx]
        dt = state.dt[idx]
        w = state.inflight[idx]
        self._last_rtt = np.where(act, rttm, self._last_rtt)
        rtt_min = self.rtt_min_filter.update(
            act, now, rttm, self._rtt_min_window
        )
        dq = np.maximum(rttm - rtt_min, 0.0)
        target_rate = np.where(
            dq <= 1e-9, np.inf, self.mss / (self.delta * dq)
        )
        current_rate = w / rttm
        direction = np.where(current_rate <= target_rate, 1.0, -1.0)
        flip = act & (direction != self.direction)
        self.velocity = np.where(flip, 1.0, self.velocity)
        self.same_direction = np.where(flip, 0, self.same_direction)
        due = act & ~flip & (now >= self.next_velocity_update)
        self.next_velocity_update = np.where(
            due, now + rttm, self.next_velocity_update
        )
        self.same_direction = np.where(
            due, self.same_direction + 1, self.same_direction
        )
        dbl = due & (
            self.same_direction >= copa_laws.VELOCITY_DOUBLE_ROUNDS
        )
        self.velocity = np.where(
            dbl,
            np.minimum(self.velocity * 2.0, copa_laws.VELOCITY_CAP),
            self.velocity,
        )
        acked_pkts = thr * dt / self.mss
        step = (
            self.velocity
            * self.mss
            * self.mss
            * acked_pkts
            / (self.delta * np.maximum(w, self.mss))
        )
        step = np.minimum(step, w)
        grown = np.maximum(w + direction * step, self.min_inflight)
        self.direction = np.where(act, direction, self.direction)
        state.inflight[idx] = np.where(act, grown, w)

    def on_loss(self, state: TickState, victims: np.ndarray) -> None:
        idx = self.rows
        hit = victims[idx]
        if not np.count_nonzero(hit):
            return
        adm = self._admit(state.now[idx], hit)
        w = state.inflight[idx]
        cut = np.maximum(w * copa_laws.LOSS_BETA, self.min_inflight)
        state.inflight[idx] = np.where(adm, cut, w)
        self.velocity = np.where(adm, 1.0, self.velocity)


class VecBBR(VecKernel):
    """Vectorized :class:`repro.fluidsim.flows.FluidBBR`."""

    name = "bbr"
    loss_based = False
    _allowed_kwargs = ("gain_cycling",)
    _probe_rtt_interval = bbr_laws.RTPROP_FILTER_LEN

    def __init__(self, rows, rtt, mss, cc_kwargs, rtt_ticks, steps) -> None:
        super().__init__(rows, rtt, mss, cc_kwargs, rtt_ticks, steps)
        self.gain_cycling = np.array(
            [bool(k.get("gain_cycling", True)) for k in cc_kwargs]
        )
        # One sample per tick, kept for at most BTLBW_FILTER_ROUNDS
        # measured RTTs (+ the sample being pushed, + clock rounding)
        # and never more than the run has ticks.
        window = (bbr_laws.BTLBW_FILTER_ROUNDS * rtt_ticks).astype(np.int64)
        self.bw_filter = VecWindowedFilter(
            np.minimum(window + 3, steps + 1), is_max=True
        )
        self.rtt_min_est = rtt.copy()
        self.rtt_min_stamp = np.zeros(self.n)
        self.in_startup = np.ones(self.n, dtype=bool)
        self.best_bw = np.zeros(self.n)
        self.plateau = np.zeros(self.n, dtype=np.int64)
        self.next_growth_check = np.zeros(self.n)
        self.cycle_index = np.full(
            self.n, bbr_laws.PROBE_BW_NEUTRAL_PHASE, dtype=np.int64
        )
        self.cycle_stamp = np.zeros(self.n)
        self.probe_rtt_until = np.full(self.n, np.nan)
        self.inflight_before_probe = np.zeros(self.n)
        self.probe_rtt_floor = bbr_laws.PROBE_RTT_CWND_SEGMENTS * mss
        # No-estimate fallback: pace the initial window over one base RTT.
        self._initial_pacing = INITIAL_CWND_SEGMENTS * mss / rtt

    def tick(self, state: TickState) -> None:
        idx = self.rows
        act = state.active[idx]
        if not np.count_nonzero(act):
            return
        now = state.now[idx]
        rttm = state.rtt_measured[idx]
        thr = state.throughput[idx]
        dt = state.dt[idx]
        w = state.inflight[idx]
        np.copyto(self._last_rtt, rttm, where=act)
        window = bbr_laws.BTLBW_FILTER_ROUNDS * rttm
        self.bw_filter.update(act & (thr > 0.0), now, thr, window)
        # _update_rtt_min: new minima refresh estimate and stamp;
        # while probing, track the best RTT seen draining.
        probing = ~np.isnan(self.probe_rtt_until)
        new_min = act & (rttm <= self.rtt_min_est)
        np.copyto(self.rtt_min_est, rttm, where=new_min)
        np.copyto(self.rtt_min_stamp, now, where=new_min)
        drain_min = act & ~new_min & probing
        if np.count_nonzero(drain_min):
            np.minimum(
                self.rtt_min_est,
                rttm,
                out=self.rtt_min_est,
                where=drain_min,
            )

        in_probe = act & probing
        hold = in_probe & (now < self.probe_rtt_until)
        np.copyto(w, self.probe_rtt_floor, where=hold)
        leave = in_probe & ~hold
        if np.count_nonzero(leave):
            np.copyto(self.probe_rtt_until, np.nan, where=leave)
            np.copyto(self.rtt_min_stamp, now, where=leave)
            np.copyto(self.cycle_stamp, now, where=leave)
            np.copyto(w, self.inflight_before_probe, where=leave)

        run = act & ~hold
        expire = run & (
            now - self.rtt_min_stamp > self._probe_rtt_interval
        )
        if np.count_nonzero(expire):
            np.copyto(
                self.probe_rtt_until,
                now + bbr_laws.PROBE_RTT_DURATION,
                where=expire,
            )
            np.copyto(self.inflight_before_probe, w, where=expire)
            np.copyto(w, self.probe_rtt_floor, where=expire)
            np.copyto(self.rtt_min_est, rttm, where=expire)

        go = run & ~expire
        advance = (
            go
            & ~self.in_startup
            & self.gain_cycling
            & (now - self.cycle_stamp > self.rtt_min_est)
        )
        if np.count_nonzero(advance):
            np.copyto(
                self.cycle_index,
                (self.cycle_index + 1) % len(bbr_laws.GAIN_CYCLE),
                where=advance,
            )
            np.copyto(self.cycle_stamp, now, where=advance)
        gain = np.where(
            self.in_startup,
            bbr_laws.HIGH_GAIN,
            np.where(
                self.gain_cycling, _GAIN_CYCLE[self.cycle_index], 1.0
            ),
        )
        bw = self.bw_filter.get()
        pacing = gain * bw
        np.copyto(pacing, self._initial_pacing, where=pacing <= 0)
        w_go = w + (pacing - thr) * dt
        cap_gain = np.where(
            self.in_startup, bbr_laws.HIGH_GAIN, bbr_laws.CWND_GAIN
        )
        cap = cap_gain * bw * self.rtt_min_est
        np.minimum(w_go, cap, out=w_go, where=cap > 0)
        np.maximum(w_go, self.probe_rtt_floor, out=w_go)
        np.copyto(w, w_go, where=go)

        # _check_startup_exit, once per RTT (FullPipeDetector law).
        chk = go & self.in_startup & (now >= self.next_growth_check)
        if np.count_nonzero(chk):
            np.copyto(self.next_growth_check, now + rttm, where=chk)
            grow = chk & (
                bw >= self.best_bw * bbr_laws.STARTUP_GROWTH_THRESH
            )
            np.copyto(self.best_bw, bw, where=grow)
            np.copyto(self.plateau, 0, where=grow)
            stall = chk & ~grow
            self.plateau += stall
            full = stall & (
                self.plateau >= bbr_laws.STARTUP_PLATEAU_ROUNDS
            )
            if np.count_nonzero(full):
                np.copyto(self.in_startup, False, where=full)
                np.copyto(
                    self.cycle_index,
                    bbr_laws.PROBE_BW_NEUTRAL_PHASE,
                    where=full,
                )
                np.copyto(self.cycle_stamp, now, where=full)
                drain_target = bw * self.rtt_min_est
                np.copyto(
                    w,
                    np.minimum(
                        w,
                        np.maximum(
                            drain_target, self.probe_rtt_floor
                        ),
                    ),
                    where=full,
                )
        # Every mask above is a subset of ``act``, so inactive rows of
        # ``w`` still hold their gathered values: a plain scatter equals
        # the old masked merge.
        state.inflight[idx] = w

    def state_labels(self) -> List[str]:
        labels = []
        probing = ~np.isnan(self.probe_rtt_until)
        for i in range(self.n):
            if probing[i]:
                labels.append(bbr_laws.PROBE_RTT)
            elif self.in_startup[i]:
                labels.append(bbr_laws.STARTUP)
            else:
                labels.append(bbr_laws.PROBE_BW)
        return labels


class VecBBR2(VecBBR):
    """Vectorized :class:`repro.fluidsim.flows.FluidBBR2`."""

    name = "bbr2"
    loss_based = True
    _allowed_kwargs = ()
    _probe_rtt_interval = bbr2_laws.PROBE_RTT_INTERVAL

    def __init__(self, rows, rtt, mss, cc_kwargs, rtt_ticks, steps) -> None:
        super().__init__(rows, rtt, mss, cc_kwargs, rtt_ticks, steps)
        self.gain_cycling = np.ones(self.n, dtype=bool)
        self.inflight_hi = np.full(self.n, np.inf)
        self.next_probe_up = np.zeros(self.n)
        self.round_lost = np.zeros(self.n)
        self.round_delivered = np.zeros(self.n)
        self.round_end = np.zeros(self.n)

    def tick(self, state: TickState) -> None:
        super().tick(state)
        idx = self.rows
        act = state.active[idx]
        if not np.count_nonzero(act):
            return
        now = state.now[idx]
        rttm = state.rtt_measured[idx]
        thr = state.throughput[idx]
        dt = state.dt[idx]
        lost = state.lost_bytes[idx]
        np.add(self.round_lost, lost, out=self.round_lost, where=act)
        np.add(
            self.round_delivered,
            thr * dt,
            out=self.round_delivered,
            where=act,
        )
        roll = act & (now >= self.round_end)
        if np.count_nonzero(roll):
            np.copyto(self.round_end, now + rttm, where=roll)
            np.copyto(self.round_lost, 0.0, where=roll)
            np.copyto(self.round_delivered, 0.0, where=roll)
        # Rows still in (or just entering) ProbeRTT stop here.
        post = act & np.isnan(self.probe_rtt_until)
        up = (
            post
            & (now >= self.next_probe_up)
            & np.isfinite(self.inflight_hi)
        )
        if np.count_nonzero(up):
            np.multiply(
                self.inflight_hi,
                bbr2_laws.PROBE_UP_GAIN,
                out=self.inflight_hi,
                where=up,
            )
            np.copyto(
                self.next_probe_up,
                now + bbr2_laws.PROBE_UP_INTERVAL,
                where=up,
            )
        w = state.inflight[idx]
        cap = bbr2_laws.HEADROOM * self.inflight_hi
        over = post & (w > cap)
        if np.count_nonzero(over):
            np.copyto(w, np.maximum(cap, self.min_inflight), where=over)
            state.inflight[idx] = w

    def on_drop(
        self, state: TickState, dropped: np.ndarray, mask: np.ndarray
    ) -> None:
        idx = self.rows
        hit = mask[idx]
        if not np.count_nonzero(hit):
            return
        self.round_lost = np.where(
            hit, self.round_lost + dropped[idx], self.round_lost
        )

    def on_loss(self, state: TickState, victims: np.ndarray) -> None:
        idx = self.rows
        hit = victims[idx]
        if not np.count_nonzero(hit):
            return
        now = state.now[idx]
        total = self.round_delivered + self.round_lost
        loss_rate = np.where(
            total > 0, self.round_lost / total, 0.0
        )
        over = hit & (loss_rate > bbr2_laws.LOSS_THRESH)
        adm = self._admit(now, over)
        if not np.count_nonzero(adm):
            return
        w = state.inflight[idx]
        bound = np.minimum(self.inflight_hi, w)
        cut = np.maximum(
            bound * (1.0 - bbr2_laws.BETA), self.min_inflight
        )
        self.inflight_hi = np.where(adm, cut, self.inflight_hi)
        state.inflight[idx] = np.where(
            adm, np.minimum(w, self.inflight_hi), w
        )
        self.next_probe_up = np.where(
            adm, now + bbr2_laws.PROBE_UP_INTERVAL, self.next_probe_up
        )


class VecVivace(VecKernel):
    """Vectorized :class:`repro.fluidsim.flows.FluidVivace`."""

    name = "vivace"
    loss_based = False
    _allowed_kwargs = ("initial_rate", "latency_coeff", "loss_coeff")

    def __init__(self, rows, rtt, mss, cc_kwargs, rtt_ticks, steps) -> None:
        super().__init__(rows, rtt, mss, cc_kwargs, rtt_ticks, steps)
        self.rate = np.array(
            [
                float(k.get("initial_rate", vivace_laws.DEFAULT_INITIAL_RATE))
                for k in cc_kwargs
            ]
        )
        self.latency_coeff = np.array(
            [float(k.get("latency_coeff", 0.0)) for k in cc_kwargs]
        )
        self.loss_coeff = np.array(
            [
                float(k.get("loss_coeff", vivace_laws.LOSS_COEFF))
                for k in cc_kwargs
            ]
        )
        self.mi_phase = np.zeros(self.n, dtype=np.int64)
        self.mi_start = np.full(self.n, np.nan)
        self.mi_end = np.zeros(self.n)
        self.mi_delivered = np.zeros(self.n)
        self.mi_lost = np.zeros(self.n)
        self.mi_qd_start = np.zeros(self.n)
        self.last_qd = np.zeros(self.n)
        self.pair_first = np.full(self.n, np.nan)
        self.amplifier = np.ones(self.n)
        self.last_direction = np.zeros(self.n)

    def tick(self, state: TickState) -> None:
        idx = self.rows
        act = state.active[idx]
        if not np.count_nonzero(act):
            return
        now = state.now[idx]
        rttm = state.rtt_measured[idx]
        thr = state.throughput[idx]
        dt = state.dt[idx]
        qd = state.queue_delay[idx]
        lost = state.lost_bytes[idx]
        self._last_rtt = np.where(act, rttm, self._last_rtt)
        begin = act & np.isnan(self.mi_start)
        self._begin_mi(begin, now, rttm, dt, qd)
        self.mi_delivered = np.where(
            act, self.mi_delivered + thr * dt, self.mi_delivered
        )
        self.mi_lost = np.where(act, self.mi_lost + lost, self.mi_lost)
        self.last_qd = np.where(act, qd, self.last_qd)

        fin = act & (now >= self.mi_end)
        if np.count_nonzero(fin):
            elapsed = np.maximum(now - self.mi_start, 1e-6)
            gradient = (self.last_qd - self.mi_qd_start) / elapsed
            score = mathops.vivace_score(
                elapsed,
                self.mi_delivered,
                self.mi_lost,
                gradient,
                self.latency_coeff,
                self.loss_coeff,
            )
            was_first = self.mi_phase == 0
            p0 = fin & was_first
            p1 = fin & ~was_first
            self.pair_first = np.where(p0, score, self.pair_first)
            self.mi_phase = np.where(
                fin, np.where(was_first, 1, 0), self.mi_phase
            )
            # vivace_laws.gradient_step on the finished pair.
            u_plus, u_minus = self.pair_first, score
            eq = u_plus == u_minus
            direction = np.where(u_plus > u_minus, 1.0, -1.0)
            same = direction == self.last_direction
            amp = np.where(
                same,
                np.minimum(
                    self.amplifier * 2.0, vivace_laws.MAX_AMPLIFIER
                ),
                1.0,
            )
            stepped = np.maximum(
                self.rate
                + direction * vivace_laws.EPSILON * amp * self.rate,
                vivace_laws.MIN_RATE,
            )
            moved = p1 & ~eq
            self.rate = np.where(moved, stepped, self.rate)
            self.amplifier = np.where(
                p1, np.where(eq, 1.0, amp), self.amplifier
            )
            self.last_direction = np.where(
                p1, np.where(eq, 0.0, direction), self.last_direction
            )
            self.pair_first = np.where(p1, np.nan, self.pair_first)
            self._begin_mi(fin, now, rttm, dt, qd)

        factor = np.where(
            self.mi_phase == 0,
            1.0 + vivace_laws.EPSILON,
            1.0 - vivace_laws.EPSILON,
        )
        grown = np.maximum(
            self.rate * factor * rttm, self.min_inflight
        )
        state.inflight[idx] = np.where(
            act, grown, state.inflight[idx]
        )

    def _begin_mi(self, mask, now, rttm, dt, qd) -> None:
        if not np.count_nonzero(mask):
            return
        self.mi_start = np.where(mask, now, self.mi_start)
        self.mi_end = np.where(
            mask, now + np.maximum(rttm, 4 * dt), self.mi_end
        )
        self.mi_delivered = np.where(mask, 0.0, self.mi_delivered)
        self.mi_lost = np.where(mask, 0.0, self.mi_lost)
        self.mi_qd_start = np.where(mask, qd, self.mi_qd_start)

    def on_drop(
        self, state: TickState, dropped: np.ndarray, mask: np.ndarray
    ) -> None:
        idx = self.rows
        hit = mask[idx]
        if not np.count_nonzero(hit):
            return
        self.mi_lost = np.where(
            hit, self.mi_lost + dropped[idx], self.mi_lost
        )
