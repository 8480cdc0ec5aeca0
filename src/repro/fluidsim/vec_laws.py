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
  monitor-interval start) is NaN-encoded, the loss-gate timestamp
  ``-inf``-encoded;
* windowed filters are ring buffers with monotonic-deque semantics
  matching :class:`repro.util.filters.WindowedFilter` pop-for-pop.

A tick pays for its events, not its rows: when every row of the batch
is live, kernels apply no live-row mask at all (:func:`_and`,
:func:`_pick`), and the congestion signals (``on_drop``, ``on_loss``)
reach a kernel as the local indices of the rows they hit — the
arithmetic is elementwise, so the subset's bits are the full-width
masked expressions' bits.  The same holds for phases: BBR's STARTUP
and ProbeRTT rows are counted at their transitions and worked on by
index while any exist, and CUBIC drops its slow-start masks once no
row is in slow start, so a cruising tick pays only for the phase its
rows are in.  A batch whose points share one ``dt`` has one clock:
``TickState.now`` / ``.dt`` are then floats, broadcast into the same
IEEE operations (:func:`_at`).

Kernels carry no telemetry: no per-flow events (``cc.backoff``,
``cc.state``), no state labels, no samples.  Instrumented runs take the
scalar loop (:func:`repro.experiments.runner.runs_vectorized`), the one
instrumented implementation of the fluid model.
"""

from __future__ import annotations

from typing import Dict, Sequence

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
#: The gain-cycle phase after each phase: the advance as one lookup.
_NEXT_PHASE = np.roll(np.arange(len(bbr_laws.GAIN_CYCLE)), -1)


class TickState:
    """One tick's observations, as global per-flow column arrays.

    The vectorized analogue of :class:`repro.fluidsim.core.TickContext`:
    every attribute is a length-``n_flows`` float array (``active`` is
    bool), indexed by global flow row — except that ``now`` and ``dt``
    are floats when every point of the batch ticks by the same ``dt``
    (read them through :func:`_at`).  ``inflight`` is the *state*
    array kernels own — the simulator's working copy (trimmed by drops)
    lives in :class:`repro.fluidsim.vec.VecFluidSim`, exactly like the
    scalar loop's ``inflights`` list is distinct from ``flow.inflight``.
    ``queue_delay`` and ``lost_bytes`` are kept only when some kernel
    reads them (:attr:`VecKernel.reads`).  ``all_live`` says every row
    of the batch is active this tick, so a kernel need not gather or
    apply ``active`` at all.
    """

    __slots__ = (
        "now",
        "dt",
        "throughput",
        "rtt_measured",
        "queue_delay",
        "lost_bytes",
        "active",
        "all_live",
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
        self.all_live = False
        self.inflight = np.zeros(n)


# A kernel's live-row mask is an array, or ``True`` when every row is
# live (TickState.all_live): numpy's ``where=True`` is already the
# unmasked path, and these two skip the mask where an operator or
# ``np.where`` would apply it.


def _and(act, mask: np.ndarray) -> np.ndarray:
    """``act & mask``."""
    return mask if act is True else act & mask


def _pick(act, live: np.ndarray, other: np.ndarray) -> np.ndarray:
    """``np.where(act, live, other)``."""
    return live if act is True else np.where(act, live, other)


def _at(column, idx):
    """``column[idx]``, where a uniform clock (a float) is the same for
    every row."""
    return column if column.__class__ is float else column[idx]


class VecWindowedFilter:
    """Row-parallel sliding-window best-value filter.

    The vectorized :class:`repro.util.filters.WindowedFilter`: one
    monotonic deque per row, stored as ring buffers in flat arrays
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

    The values ring is *mirrored*: row ``r`` owns ``2 * cap[r]`` value
    slots and every push is written at slot ``k`` and ``k + cap``, so
    the ``j``-th live entry (``j <= cap``) sits at the plain offset
    ``(head - 1) & wrap`` + ``j`` — the search probes with one add, no
    per-step wrap.  Times are read at the head only and are not
    mirrored.

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
        #: Whether every row holds a sample (a row, once pushed, is
        #: never emptied: see :meth:`update`).
        self._filled = False
        # Scratch buffers: update() runs every tick, so its index
        # arithmetic writes into preallocated arrays (``out=``) rather
        # than allocating ~a dozen temporaries per search iteration.
        self._i1 = np.zeros(n, dtype=np.int64)
        self._i2 = np.zeros(n, dtype=np.int64)
        self._i3 = np.zeros(n, dtype=np.int64)
        self._i4 = np.zeros(n, dtype=np.int64)
        self._lo = np.zeros(n, dtype=np.int64)
        self._f1 = np.zeros(n)
        self._m1 = np.zeros(n, dtype=bool)
        self._m2 = np.zeros(n, dtype=bool)

    def _layout(self, cap: np.ndarray) -> None:
        """Flat storage for per-row capacities ``cap``: absolute
        position ``k`` of row ``r``'s deque has its time at
        ``base[r] + (k & wrap[r])`` and its value at ``vbase[r] +
        (k & wrap[r])``, mirrored ``cap[r]`` slots further on."""
        self.cap = cap
        self._wrap = cap - 1
        self._base = np.cumsum(cap) - cap
        self._vbase = 2 * self._base
        total = int(cap.sum())
        self.times = np.zeros(total)
        self.values = np.zeros(2 * total)

    def _grow(self, full: np.ndarray) -> None:
        """Double the capacity of the ``full`` rows, and only theirs.

        Head and tail are absolute counters, so a live entry keeps its
        position ``k``; only where ``k`` lands in the flat storage
        changes.  Every row's live entries move in one gather/scatter.
        """
        times, values = self.times, self.values
        count = self.tail - self.head
        row = np.repeat(np.arange(self.n), count)
        first = np.cumsum(count) - count
        k = self.head[row] + (np.arange(len(row)) - first[row])
        slot = k & self._wrap[row]
        moved_times = times[self._base[row] + slot]
        moved_values = values[self._vbase[row] + slot]
        self._layout(np.where(full, self.cap * 2, self.cap))
        slot = k & self._wrap[row]
        self.times[self._base[row] + slot] = moved_times
        dst = self._vbase[row] + slot
        self.values[dst] = moved_values
        self.values[dst + self.cap[row]] = moved_values
        self.reallocations += 1

    def update(
        self,
        mask: np.ndarray,
        now: np.ndarray,
        value: np.ndarray,
        window: np.ndarray,
    ) -> None:
        """Push ``value`` at ``now`` for masked rows and expire their
        entries older than ``now - window``; :meth:`get` reads the best.

        The push comes first: shadowing drops a suffix of the deque by
        value and expiry a prefix by time, so the order does not change
        what survives, and once pushed a row holds a sample inside its
        window — expiry stops there without asking whether the deque
        is empty.  (The ring bound covers the entries that are about to
        expire: they are still within the previous tick's window.)
        """
        base, wrap = self._base, self._wrap
        head, tail = self.head, self.tail
        idx, probe, last, lo = self._i1, self._i2, self._i3, self._lo
        at = self._i4
        f1, stale, cut = self._f1, self._m1, self._m2
        # New tail by binary search: live values run strictly best-to-
        # worst from head, so the entries the new sample does not
        # shadow are exactly a prefix.  Its length is built bit by bit,
        # highest first, as a pointer into the mirrored values: entry
        # ``j`` of a row sits at ``first + j`` and its last entry at
        # ``last``.  Probing at ``min(lo + step, last)`` asks "does the
        # entry there still beat the sample?" (samples are finite, so
        # "not shadowed" is a strict comparison): below ``last`` that is
        # the plain bit test, and at ``last`` a yes means every entry
        # survives, which the final clamp to ``last`` records — so no
        # "that many entries exist" mask is needed.  The trip count is
        # the deepest row's bit length for every row.
        beats = np.less if self.is_max else np.greater
        np.subtract(head, 1, out=idx)
        np.bitwise_and(idx, wrap, out=idx)
        np.add(idx, self._vbase, out=idx)  # first: entry 0's slot
        np.subtract(tail, head, out=last)
        step = (1 << int(last.max()).bit_length()) >> 1
        np.add(last, idx, out=last)
        np.copyto(lo, idx)
        while step:
            np.add(lo, step, out=probe)
            np.minimum(probe, last, out=at)
            self.values.take(at, out=f1)
            beats(value, f1, out=cut)
            np.copyto(lo, probe, where=cut)
            step >>= 1
        np.minimum(lo, last, out=lo)
        np.subtract(lo, idx, out=lo)  # entries that survive
        np.add(head, lo, out=lo)
        np.copyto(tail, lo, where=mask)
        np.subtract(tail, head, out=idx)
        np.greater_equal(idx, self.cap, out=cut)
        if np.count_nonzero(cut):
            self._grow(cut)
            base, wrap = self._base, self._wrap
        np.bitwise_and(tail, wrap, out=idx)
        np.add(idx, base, out=probe)
        np.add(idx, self._vbase, out=idx)
        horizon = now - window
        if np.count_nonzero(mask) == self.n:
            self.times[probe] = now
            self.values[idx] = value
            idx += self.cap
            self.values[idx] = value
            tail += 1
            self._filled = True
        else:
            sel = idx[mask]
            self.times[probe[mask]] = _at(now, mask)
            self.values[sel] = value[mask]
            sel += self.cap[mask]
            self.values[sel] = value[mask]
            tail += mask
            horizon = np.where(mask, horizon, -np.inf)
        while True:  # expire stale heads (amortized: one per push)
            np.bitwise_and(head, wrap, out=idx)
            np.add(idx, base, out=idx)
            self.times.take(idx, out=f1)
            np.less(f1, horizon, out=stale)
            if not np.count_nonzero(stale):
                break
            head += stale

    def get(self) -> np.ndarray:
        """Per-row best in window (0.0 for empty rows), no expiry —
        matching ``WindowedFilter.get()`` without a clock."""
        best = self.values.take(self._vbase + (self.head & self._wrap))
        if self._filled:
            return best
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
    #: The optional ``TickState`` columns :meth:`tick` reads
    #: (``"queue_delay"``, ``"lost_bytes"``); the simulator keeps a
    #: column only when some kernel of the batch reads it.
    reads: Sequence[str] = ()
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
        # CongestionEventGate: admit when no prior event or at least one
        # (last-measured) RTT has passed since the last.  "No prior
        # event" is -inf, which every finite RTT has passed.
        self._gate_last = np.full(self.n, -np.inf)
        self._last_rtt = rtt.copy()

    def _live(self, state: TickState):
        """This kernel's live-row mask, or ``True`` when every row is
        live (see :func:`_and`)."""
        return True if state.all_live else state.active[self.rows]

    def _admit(self, state: TickState, loc: np.ndarray) -> np.ndarray:
        """The victims among ``loc`` (local rows) that the gate admits,
        stamped with this tick's time."""
        now = _at(state.now, self.rows[loc])
        ok = now - self._gate_last[loc] >= self._last_rtt[loc]
        loc = loc[ok]
        self._gate_last[loc] = _at(now, ok)
        return loc

    def tick(self, state: TickState) -> None:
        raise NotImplementedError

    def on_drop(
        self, state: TickState, loc: np.ndarray, dropped: np.ndarray
    ) -> None:
        """Physical drop of ``dropped`` bytes on local rows ``loc``
        (loss-agnostic flows just lose bytes).  The simulator calls it
        only on kernels that override it."""

    def on_loss(self, state: TickState, loc: np.ndarray) -> None:
        """Congestion backoff for the victims ``loc`` (local rows,
        ascending; the gate applies).  The simulator calls it only on
        kernels that override it."""


class VecReno(VecKernel):
    """Vectorized :class:`repro.fluidsim.flows.FluidReno`."""

    name = "reno"
    loss_based = True

    def __init__(self, rows, rtt, mss, cc_kwargs, rtt_ticks, steps) -> None:
        super().__init__(rows, rtt, mss, cc_kwargs, rtt_ticks, steps)
        self.in_slow_start = np.ones(self.n, dtype=bool)

    def tick(self, state: TickState) -> None:
        idx = self.rows
        act = self._live(state)
        if act is not True and not np.count_nonzero(act):
            return
        rttm = state.rtt_measured[idx]
        dt = _at(state.dt, idx)
        w = state.inflight[idx]
        self._last_rtt = _pick(act, rttm, self._last_rtt)
        grown = np.where(
            self.in_slow_start,
            w * mathops.exp2(dt / rttm),
            w + self.mss * dt / rttm,
        )
        state.inflight[idx] = _pick(act, grown, w)

    def on_loss(self, state: TickState, loc: np.ndarray) -> None:
        loc = self._admit(state, loc)
        rows = self.rows[loc]
        w = state.inflight[rows]
        state.inflight[rows] = np.maximum(
            w * reno_laws.BETA, self.min_inflight[loc]
        )
        self.in_slow_start[loc] = False


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
        #: Rows still in slow start; it only ever falls (``on_loss``).
        self.slow_rows = self.n
        self.w_max_pkts = np.full(self.n, np.nan)
        self.epoch_start = np.full(self.n, np.nan)
        self.k = np.zeros(self.n)

    def tick(self, state: TickState) -> None:
        idx = self.rows
        act = self._live(state)
        if act is not True and not np.count_nonzero(act):
            return
        now = _at(state.now, idx)
        rttm = state.rtt_measured[idx]
        thr = state.throughput[idx]
        dt = _at(state.dt, idx)
        w = state.inflight[idx]
        self._last_rtt = _pick(act, rttm, self._last_rtt)
        ca = _and(act, ~self.in_slow_start) if self.slow_rows else act
        # New epochs (cubic_laws.begin_epoch), on their rows only: the
        # arithmetic is elementwise, so it matches the full-width masked
        # form bitwise while skipping np.power everywhere else.
        begin = _and(ca, np.isnan(self.epoch_start)).nonzero()[0]
        if len(begin):
            self.epoch_start[begin] = _at(now, begin)
            cwnd_seg = w[begin] / self.mss[begin]
            w_max = self.w_max_pkts[begin]
            # Rebase K below W_max; anchor at the window where there is
            # no W_max yet (NaN compares False) or the window passed it.
            # After a backoff the window is below W_max: a rare anchor.
            rebase = w_max >= cwnd_seg
            if np.count_nonzero(rebase) < len(begin):
                anchor = begin[~rebase]
                self.w_max_pkts[anchor] = cwnd_seg[~rebase]
                self.k[anchor] = 0.0
                begin, w_max = begin[rebase], w_max[rebase]
            if len(begin):
                self.k[begin] = mathops.cubic_k(w_max)
        t = now - self.epoch_start
        target_pkts = mathops.cubic_window(t, self.k, self.w_max_pkts)
        target = np.maximum(target_pkts * self.mss, self.min_inflight)
        max_growth = np.maximum(thr * dt, self.mss * dt / rttm)
        grown = np.minimum(target, w + max_growth)
        if self.slow_rows:
            np.copyto(grown, w, where=~ca)
            ss = _and(act, self.in_slow_start)
            if np.count_nonzero(ss):
                np.copyto(grown, w * mathops.exp2(dt / rttm), where=ss)
        elif act is not True:
            np.copyto(grown, w, where=~act)
        state.inflight[idx] = grown

    def on_loss(self, state: TickState, loc: np.ndarray) -> None:
        loc = self._admit(state, loc)
        if not len(loc):
            return
        rows = self.rows[loc]
        w = state.inflight[rows]
        cwnd_seg = w / self.mss[loc]
        # cubic_laws.reduce_w_max; a NaN (no W_max yet) compares False.
        shrink = self.fast_convergence[loc] & (
            cwnd_seg < self.w_max_pkts[loc]
        )
        self.w_max_pkts[loc] = np.where(
            shrink,
            cwnd_seg * (2.0 - cubic_laws.BETA_CUBIC) / 2.0,
            cwnd_seg,
        )
        # K is not refreshed here: the epoch the next congestion-
        # avoidance tick begins sets it (anchor or rebase) before any
        # read, to the value it would have had.
        state.inflight[rows] = np.maximum(
            w * cubic_laws.BETA_CUBIC, self.min_inflight[loc]
        )
        self.epoch_start[loc] = np.nan
        if self.slow_rows:
            self.in_slow_start[loc] = False
            self.slow_rows = int(np.count_nonzero(self.in_slow_start))


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
        act = self._live(state)
        if act is not True and not np.count_nonzero(act):
            return
        rttm = state.rtt_measured[idx]
        dt = _at(state.dt, idx)
        w = state.inflight[idx]
        self._last_rtt = _pick(act, rttm, self._last_rtt)
        self.base_rtt = _pick(
            act, np.minimum(self.base_rtt, rttm), self.base_rtt
        )
        # vegas_laws.queued_packets; base_rtt is finite and rttm > 0
        # on the fluid substrate, so the degenerate guard is moot.
        expected = w / self.base_rtt
        actual = w / rttm
        diff = (expected - actual) * self.base_rtt / self.mss
        per_rtt = self.mss * dt / rttm
        was_ss = self.in_slow_start.copy()
        ss = _and(act, was_ss)
        leave = ss & (diff > vegas_laws.GAMMA_PACKETS)
        self.in_slow_start = np.where(leave, False, self.in_slow_start)
        stay = ss & ~leave
        w_ss = w * mathops.exp2(dt / (2 * rttm))
        # Exiting slow start falls through to the CA rules this tick.
        ca = _and(act, ~was_ss | leave)
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

    def on_loss(self, state: TickState, loc: np.ndarray) -> None:
        loc = self._admit(state, loc)
        self.in_slow_start[loc] = False
        rows = self.rows[loc]
        w = state.inflight[rows]
        state.inflight[rows] = np.maximum(
            w * vegas_laws.LOSS_BETA, self.min_inflight[loc]
        )


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
        self._every_row = np.ones(self.n, dtype=bool)
        self.velocity = np.ones(self.n)
        self.direction = np.zeros(self.n)
        self.same_direction = np.zeros(self.n, dtype=np.int64)
        self.next_velocity_update = np.zeros(self.n)

    def tick(self, state: TickState) -> None:
        idx = self.rows
        act = self._live(state)
        if act is not True and not np.count_nonzero(act):
            return
        now = _at(state.now, idx)
        rttm = state.rtt_measured[idx]
        thr = state.throughput[idx]
        dt = _at(state.dt, idx)
        w = state.inflight[idx]
        self._last_rtt = _pick(act, rttm, self._last_rtt)
        self.rtt_min_filter.update(
            self._every_row if act is True else act,
            now,
            rttm,
            self._rtt_min_window,
        )
        rtt_min = self.rtt_min_filter.get()
        dq = np.maximum(rttm - rtt_min, 0.0)
        target_rate = np.where(
            dq <= 1e-9, np.inf, self.mss / (self.delta * dq)
        )
        current_rate = w / rttm
        direction = np.where(current_rate <= target_rate, 1.0, -1.0)
        flip = _and(act, direction != self.direction)
        self.velocity = np.where(flip, 1.0, self.velocity)
        self.same_direction = np.where(flip, 0, self.same_direction)
        due = _and(act, ~flip & (now >= self.next_velocity_update))
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
        self.direction = _pick(act, direction, self.direction)
        state.inflight[idx] = _pick(act, grown, w)

    def on_loss(self, state: TickState, loc: np.ndarray) -> None:
        loc = self._admit(state, loc)
        rows = self.rows[loc]
        w = state.inflight[rows]
        state.inflight[rows] = np.maximum(
            w * copa_laws.LOSS_BETA, self.min_inflight[loc]
        )
        self.velocity[loc] = 1.0


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
        #: Rows in STARTUP (it only ever falls) and in ProbeRTT, counted
        #: at the transitions: a tick with neither runs PROBE_BW alone.
        self.startup_rows = self.n
        self.probing_rows = 0
        self._fixed_gain = (~self.gain_cycling).nonzero()[0]

    def tick(self, state: TickState) -> None:
        idx = self.rows
        act = self._live(state)
        if act is not True and not np.count_nonzero(act):
            return
        now = _at(state.now, idx)
        rttm = state.rtt_measured[idx]
        thr = state.throughput[idx]
        dt = _at(state.dt, idx)
        w = state.inflight[idx]
        window = bbr_laws.BTLBW_FILTER_ROUNDS * rttm
        self.bw_filter.update(_and(act, thr > 0.0), now, thr, window)
        # _update_rtt_min: a sample at or below the estimate replaces it
        # and refreshes the stamp (in ProbeRTT too); min(estimate,
        # sample) is that replacement.
        new_min = _and(act, rttm <= self.rtt_min_est)
        np.copyto(self.rtt_min_stamp, now, where=new_min)
        np.minimum(self.rtt_min_est, rttm, out=self.rtt_min_est, where=act)

        # The rare phases work on their live rows by index.  ``held``
        # rows hold the ProbeRTT floor or enter ProbeRTT this tick, and
        # do not run the PROBE_BW update below.
        startup = held = None
        if self.startup_rows:
            startup = self._live_rows(act, self.in_startup)
        if self.probing_rows:
            probe = self._live_rows(act, ~np.isnan(self.probe_rtt_until))
            hold = _at(now, probe) < self.probe_rtt_until[probe]
            held = probe[hold]
            w[held] = self.probe_rtt_floor[held]
            leave = probe[~hold]
            if len(leave):
                now_l = _at(now, leave)
                self.probe_rtt_until[leave] = np.nan
                self.rtt_min_stamp[leave] = now_l
                self.cycle_stamp[leave] = now_l
                w[leave] = self.inflight_before_probe[leave]
                self.probing_rows -= len(leave)

        expire = _and(
            act, now - self.rtt_min_stamp > self._probe_rtt_interval
        )
        if held is not None:
            expire[held] = False
        if np.count_nonzero(expire):
            entered = expire.nonzero()[0]
            self.probe_rtt_until[entered] = (
                _at(now, entered) + bbr_laws.PROBE_RTT_DURATION
            )
            self.inflight_before_probe[entered] = w[entered]
            w[entered] = self.probe_rtt_floor[entered]
            self.rtt_min_est[entered] = rttm[entered]
            self.probing_rows += len(entered)
            held = (
                entered if held is None else np.concatenate((held, entered))
            )

        advance = _and(act, now - self.cycle_stamp > self.rtt_min_est)
        for out in (held, startup, self._fixed_gain):
            if out is not None and len(out):
                advance[out] = False
        if np.count_nonzero(advance):
            turn = advance.nonzero()[0]
            self.cycle_index[turn] = _NEXT_PHASE.take(self.cycle_index[turn])
            self.cycle_stamp[turn] = _at(now, turn)
        # A row with gain cycling off never leaves the neutral phase,
        # whose gain is 1.0: the lookup is its gain too.
        gain = _GAIN_CYCLE.take(self.cycle_index)
        bw = self.bw_filter.get()
        cap = bbr_laws.CWND_GAIN * bw
        if startup is not None:
            gain[startup] = bbr_laws.HIGH_GAIN
            cap[startup] = bbr_laws.HIGH_GAIN * bw[startup]
        pacing = gain * bw
        idle = pacing <= 0  # no bandwidth sample yet
        if np.count_nonzero(idle):
            np.copyto(pacing, self._initial_pacing, where=idle)
        w_go = w + (pacing - thr) * dt
        cap *= self.rtt_min_est
        capped = cap > 0  # every row, once every row has a sample
        if np.count_nonzero(capped) == self.n:
            capped = True
        np.minimum(w_go, cap, out=w_go, where=capped)
        np.maximum(w_go, self.probe_rtt_floor, out=w_go)
        if held is not None and len(held):
            w_go[held] = w[held]
        if act is True:
            w = w_go
        else:
            # Masked-off rows of ``w`` still hold their gathered values,
            # so the scatter below leaves them as they were.
            np.copyto(w, w_go, where=act)

        if startup is not None:
            self._check_startup_exit(now, rttm, bw, w, startup, held)
        state.inflight[idx] = w

    @staticmethod
    def _live_rows(act, mask: np.ndarray) -> np.ndarray:
        """The local rows ``mask`` selects that are live this tick."""
        return _and(act, mask).nonzero()[0]

    def _check_startup_exit(self, now, rttm, bw, w, startup, held) -> None:
        """FullPipeDetector, once per RTT, on the live STARTUP rows that
        ran the PROBE_BW update (``startup`` less ``held``); a row whose
        bandwidth plateaued leaves STARTUP and drains ``w``."""
        if held is not None and len(held):
            startup = np.setdiff1d(startup, held, assume_unique=True)
        chk = startup[_at(now, startup) >= self.next_growth_check[startup]]
        if not len(chk):
            return
        self.next_growth_check[chk] = _at(now, chk) + rttm[chk]
        bw_c = bw[chk]
        grow = bw_c >= self.best_bw[chk] * bbr_laws.STARTUP_GROWTH_THRESH
        self.best_bw[chk[grow]] = bw_c[grow]
        self.plateau[chk[grow]] = 0
        stall = chk[~grow]
        self.plateau[stall] += 1
        full = stall[self.plateau[stall] >= bbr_laws.STARTUP_PLATEAU_ROUNDS]
        if not len(full):
            return
        self.in_startup[full] = False
        self.startup_rows -= len(full)
        self.cycle_index[full] = bbr_laws.PROBE_BW_NEUTRAL_PHASE
        self.cycle_stamp[full] = _at(now, full)
        drain_target = bw[full] * self.rtt_min_est[full]
        w[full] = np.minimum(
            w[full], np.maximum(drain_target, self.probe_rtt_floor[full])
        )


class VecBBR2(VecBBR):
    """Vectorized :class:`repro.fluidsim.flows.FluidBBR2`."""

    name = "bbr2"
    loss_based = True
    reads = ("lost_bytes",)
    _allowed_kwargs = ()
    _probe_rtt_interval = bbr2_laws.PROBE_RTT_INTERVAL

    def __init__(self, rows, rtt, mss, cc_kwargs, rtt_ticks, steps) -> None:
        super().__init__(rows, rtt, mss, cc_kwargs, rtt_ticks, steps)
        self.inflight_hi = np.full(self.n, np.inf)
        self.next_probe_up = np.zeros(self.n)
        self.round_lost = np.zeros(self.n)
        self.round_delivered = np.zeros(self.n)
        self.round_end = np.zeros(self.n)

    def tick(self, state: TickState) -> None:
        super().tick(state)
        idx = self.rows
        act = self._live(state)
        if act is not True and not np.count_nonzero(act):
            return
        now = _at(state.now, idx)
        rttm = state.rtt_measured[idx]
        thr = state.throughput[idx]
        dt = _at(state.dt, idx)
        lost = state.lost_bytes[idx]
        # The congestion-event gate's RTT (BBR itself never backs off).
        self._last_rtt = _pick(act, rttm, self._last_rtt)
        np.add(self.round_lost, lost, out=self.round_lost, where=act)
        np.add(
            self.round_delivered,
            thr * dt,
            out=self.round_delivered,
            where=act,
        )
        roll = _and(act, now >= self.round_end)
        if np.count_nonzero(roll):
            np.copyto(self.round_end, now + rttm, where=roll)
            np.copyto(self.round_lost, 0.0, where=roll)
            np.copyto(self.round_delivered, 0.0, where=roll)
        # Rows still in (or just entering) ProbeRTT stop here.
        post = act
        if self.probing_rows:
            post = _and(act, np.isnan(self.probe_rtt_until))
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
        self, state: TickState, loc: np.ndarray, dropped: np.ndarray
    ) -> None:
        self.round_lost[loc] += dropped

    def on_loss(self, state: TickState, loc: np.ndarray) -> None:
        lost = self.round_lost[loc]
        total = self.round_delivered[loc] + lost
        loss_rate = np.where(total > 0, lost / total, 0.0)
        loc = self._admit(state, loc[loss_rate > bbr2_laws.LOSS_THRESH])
        if not len(loc):
            return
        rows = self.rows[loc]
        w = state.inflight[rows]
        bound = np.minimum(self.inflight_hi[loc], w)
        cut = np.maximum(
            bound * (1.0 - bbr2_laws.BETA), self.min_inflight[loc]
        )
        self.inflight_hi[loc] = cut
        state.inflight[rows] = np.minimum(w, cut)
        self.next_probe_up[loc] = (
            _at(state.now, rows) + bbr2_laws.PROBE_UP_INTERVAL
        )


class VecVivace(VecKernel):
    """Vectorized :class:`repro.fluidsim.flows.FluidVivace`."""

    name = "vivace"
    loss_based = False
    reads = ("queue_delay", "lost_bytes")
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
        act = self._live(state)
        if act is not True and not np.count_nonzero(act):
            return
        now = _at(state.now, idx)
        rttm = state.rtt_measured[idx]
        thr = state.throughput[idx]
        dt = _at(state.dt, idx)
        qd = state.queue_delay[idx]
        lost = state.lost_bytes[idx]
        self._last_rtt = _pick(act, rttm, self._last_rtt)
        begin = _and(act, np.isnan(self.mi_start))
        self._begin_mi(begin, now, rttm, dt, qd)
        self.mi_delivered = _pick(
            act, self.mi_delivered + thr * dt, self.mi_delivered
        )
        self.mi_lost = _pick(act, self.mi_lost + lost, self.mi_lost)
        self.last_qd = _pick(act, qd, self.last_qd)

        fin = _and(act, now >= self.mi_end)
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
        state.inflight[idx] = _pick(act, grown, state.inflight[idx])

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
        self, state: TickState, loc: np.ndarray, dropped: np.ndarray
    ) -> None:
        self.mi_lost[loc] += dropped
