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
* windowed filters answer window for window: a row's estimate is the
  best of its samples inside the window the scalar
  :class:`repro.util.filters.WindowedFilter` holds after the same
  pushes, and best-of is exact, so the floats are the scalar filter's.

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

from typing import Sequence

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
    ``queue_delay`` is kept only when some kernel reads it
    (:attr:`VecKernel.reads`).  ``all_live`` says every row
    of the batch is active this tick, so a kernel need not gather or
    apply ``active`` at all.
    """

    __slots__ = (
        "now",
        "dt",
        "throughput",
        "rtt_measured",
        "queue_delay",
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


#: The ``room`` of a row that never pushed, or froze: not checked.
_UNCHECKED = 1 << 62


class VecWindowedFilter:
    """Row-parallel sliding-window best-value filter.

    The vectorized :class:`repro.util.filters.WindowedFilter`, window
    for window: after a push, the scalar answer is the best of the
    row's samples taken at or after the running max of ``now - window``
    over its pushes, and best-of is exact, so a structure that keeps
    the window's samples and answers a range best returns the scalar
    floats.  Per row, a dense ring holds one sample per tick (``update``
    call) on the shared tick counter (-inf for a max, +inf for a min on
    a tick the row does not push), in blocks of ``block`` ticks: a
    completed block's samples become their suffix bests (one reversed
    ``accumulate`` for every row), and ``blocks`` holds per block the
    best of the complete blocks after it.  With the open block's running
    best (``prefix``), the estimate over ticks ``[s, now]`` is
    ``best(ring[s], blocks[block(s)], prefix)``: some twenty array
    operations a tick, none scaling with the window.  The head ``s`` is
    one ``searchsorted`` on the tick times for a float clock, and an
    expiry walk over per-row tick times (``times``) for an array.

    Rings are laid out one after another, each a power of two of two
    blocks or more sized from the row's own bound (a row whose window
    spans 60 ticks does not pay for a batch-mate whose window spans
    800), so a row's block entries are its ring slots shifted right by
    the block's bit length.  A row keeps one spare slot: the tick being
    stored never overwrites its head.  A pushing row whose window
    outgrows its ring doubles, so a wrong bound costs a relayout, never
    a sample; a row that does not push keeps its estimate, and freezes
    (stores into a scratch block after the rings) before its ring would
    overwrite its head, until it pushes again (:meth:`_relayout`).

    Args:
        depth: Per row, a bound on the ticks its window spans, plus
            one.  The block is the largest power of two at most the
            smallest bound (2 to 64 ticks).
        is_max: Max filter or min filter.

    The scalar filter clamps non-monotonic clocks; the fluid tick loop
    only ever feeds increasing times, so the clamp is omitted here.
    """

    def __init__(self, depth: np.ndarray, is_max: bool) -> None:
        n = self.n = len(depth)
        self._best_of = np.maximum if is_max else np.minimum
        self._none = -np.inf if is_max else np.inf
        self._lb = max(2, int(np.min(depth, initial=64))).bit_length() - 1
        self.block = 1 << self._lb
        #: Times the storage was re-laid out (a ring grew or thawed).
        self.reallocations = 0
        self.tick = 0  # the next tick's index
        self.horizon = np.full(n, -np.inf)
        self.head = np.zeros(n, dtype=np.int64)  # first tick in window
        self.best = np.zeros(n)
        self.prefix = np.full(n, self._none)
        self._hist = np.empty(64)  # the float clock's tick times
        self.times = None
        self._fresh = np.ones(n, dtype=bool)  # never pushed
        self._frozen = np.zeros(n, dtype=bool)
        self._fresh_rows, self._frozen_rows = n, 0
        self._stop = np.zeros(n, dtype=np.int64)  # the tick it froze at
        self._room = np.full(n, _UNCHECKED, dtype=np.int64)
        cap = np.maximum(depth, 2 * self.block)
        self._layout(1 << np.frexp(cap - 1)[1].astype(np.int64), 0)
        # Scratch for the per-tick index arithmetic (``out=``).
        self._slot, self._at = np.zeros((2, n), dtype=np.int64)
        self._f1, self._f2 = np.zeros((2, n))

    def _layout(self, cap: np.ndarray, c: int) -> None:
        """Storage for capacities ``cap`` at tick ``c``: row ``r``'s tick
        ``j`` sits at ``base[r] + (j & wrap[r])``."""
        self.cap, self._wrap = cap, cap - 1
        self._base = np.cumsum(cap) - cap
        self._brow = np.repeat(np.arange(self.n), cap >> self._lb)
        self.values = np.full(int(cap.sum()) + self.block, self._none)
        self.blocks = np.full(len(self._brow), self._none)
        if self.times is not None:
            self.times = np.full(len(self.values), -np.inf)
        self._open_block(c)

    def _open_block(self, c: int) -> None:
        """Per row, where tick ``c``'s block starts (a frozen row's is
        the scratch block)."""
        opened = self._base + ((c & -self.block) & self._wrap)
        scratch = len(self.values) - self.block
        self._open = np.where(self._frozen, scratch, opened)

    def update(
        self,
        mask: np.ndarray,
        now,
        value: np.ndarray,
        window: np.ndarray,
    ) -> None:
        """Push ``value`` at ``now`` for masked rows and expire their
        samples older than ``now - window``; :meth:`get` reads the
        best."""
        c = self.tick
        self.tick = c + 1
        every = np.count_nonzero(mask) == self.n
        horizon, head, at = self.horizon, self.head, self._at
        np.maximum(horizon, now - window, out=horizon, where=every or mask)
        if self._fresh_rows:
            # A first push opens the window at its own tick.
            first = mask & self._fresh
            if np.count_nonzero(first):
                self._fresh &= ~first
                self._fresh_rows = int(np.count_nonzero(self._fresh))
                horizon[first] = _at(now, first)
                head[first] = c
                self._room[first] = self._wrap[first]
        uniform = now.__class__ is float
        if uniform:
            if c == len(self._hist):
                self._hist = np.concatenate((self._hist, self._hist))
            self._hist[c] = now
        elif self.times is None:
            self.times = np.full(len(self.values), -np.inf)
        if self._frozen_rows and np.count_nonzero(mask & self._frozen):
            self._relayout(mask & self._frozen, c)
        slot = self._store_slot(c, now)
        if uniform:
            head = self.head = np.searchsorted(self._hist[: c + 1], horizon)
        else:  # walk the heads past the expired ticks
            while True:
                np.bitwise_and(head, self._wrap, out=at)
                np.add(at, self._base, out=at)
                stale = self.times.take(at, out=self._f1) < horizon
                if not np.count_nonzero(stale):
                    break
                head += stale
        np.add(head, self._room, out=at)
        if at.min() <= c:  # a ring would overwrite its head
            full = at <= c
            freeze = full & ~mask
            if np.count_nonzero(freeze):
                self._frozen |= freeze
                self._frozen_rows = int(np.count_nonzero(self._frozen))
                self._stop[freeze] = c
                self._room[freeze] = _UNCHECKED
                self._open_block(c)
            if np.count_nonzero(full & mask):
                self._relayout(full & mask, c)
            slot = self._store_slot(c, now)

        best_of, values, prefix = self._best_of, self.values, self.prefix
        sample = value if every else np.where(mask, value, self._none)
        values[slot] = sample
        best_of(prefix, sample, out=prefix)
        est = self.best if every else self._f2
        np.bitwise_and(head, self._wrap, out=at)
        np.add(at, self._base, out=at)
        values.take(at, out=est)
        np.right_shift(at, self._lb, out=at)
        self.blocks.take(at, out=self._f1)
        best_of(est, self._f1, out=est)
        best_of(est, prefix, out=est)
        opened = c & -self.block
        if head.max() >= opened:  # heads inside the open block
            rows = (head >= opened).nonzero()[0]
            ticks = np.arange(self.block)
            idx = self._base[rows] + (opened & self._wrap[rows])
            live = (ticks >= (head[rows] - opened)[:, None]) & (
                ticks <= c - opened
            )
            samples = values[idx[:, None] + ticks]
            est[rows] = best_of.reduce(
                np.where(live, samples, self._none), axis=1
            )
        if not every:
            np.copyto(self.best, est, where=mask)
        if (c + 1) % self.block == 0:
            # The block is complete: suffix bests, and its best joins
            # every earlier block's entry.
            idx = self._open[:, None] + np.arange(self.block)
            values[idx] = best_of.accumulate(values[idx][:, ::-1], axis=1)[
                :, ::-1
            ]
            best_of(self.blocks, prefix.take(self._brow), out=self.blocks)
            entry = (self._base + (opened & self._wrap)) >> self._lb
            self.blocks[entry] = self._none
            prefix.fill(self._none)
            self._open_block(c + 1)

    def get(self) -> np.ndarray:
        """Per-row best in window as of its last push (0.0 before any):
        ``WindowedFilter.get()`` without a clock.  The array is the
        filter's own, valid until the next :meth:`update`."""
        return self.best

    def _store_slot(self, c: int, now) -> np.ndarray:
        """Where tick ``c`` is stored, per row; an array clock's time is
        stored there at once (the expiry walk reads it)."""
        np.add(self._open, c & (self.block - 1), out=self._slot)
        if self.times is not None:
            self.times[self._slot] = now
        return self._slot

    def _relayout(self, grow: np.ndarray, c: int) -> None:
        """Lay every row out anew at tick ``c`` (not stored yet) from its
        window ``[head, c)`` (to where it froze, for a frozen row not in
        ``grow``; none, for a row that never pushed), doubling the rings
        of ``grow`` until window and spare slot fit.  A thawed row's
        ticks since it froze read as not pushed (times -inf: every walk
        passes them); the block it froze in becomes suffix bests."""
        lb, none, best_of = self._lb, self._none, self._best_of
        cap, windows = self.cap.copy(), []
        thaw = grow & self._frozen
        for r in range(self.n):
            stop = self._stop[r] if self._frozen[r] else c
            ticks = np.arange(self.head[r], c if thaw[r] else stop)
            if self._fresh[r]:
                ticks = ticks[:0]
            slots = self._base[r] + (ticks & self._wrap[r])
            kept = ticks < stop
            samples = np.where(kept, self.values[slots], none)
            times = self._hist[ticks] if self.times is None else (
                np.where(kept, self.times[slots], -np.inf)
            )
            if thaw[r]:  # its head: where the walk stops
                i = np.argmax(np.append(times >= self.horizon[r], True))
                ticks, samples, times = ticks[i:], samples[i:], times[i:]
                self.head[r] = ticks[0] if len(ticks) else c
                froze_in = (ticks >> lb) == stop >> lb
                if stop >> lb < c >> lb:
                    samples[froze_in] = best_of.accumulate(
                        samples[froze_in][::-1]
                    )[::-1]
            windows.append((ticks, samples, times))
            while grow[r] and cap[r] < len(ticks) + 2:
                cap[r] *= 2
        self._frozen &= ~thaw
        self._frozen_rows = int(np.count_nonzero(self._frozen))
        self._layout(cap, c)
        opened = c >> lb
        for r, (ticks, samples, times) in enumerate(windows):
            slots = self._base[r] + (ticks & self._wrap[r])
            self.values[slots] = samples
            if self.times is not None:
                self.times[slots] = times
            if self._frozen[r] or self._fresh[r]:
                continue
            # Per block from the head's to the last complete one, the
            # best of the complete blocks after it.
            starts = np.arange(int(self.head[r]) >> lb, opened) << lb
            if len(starts):
                after = np.full(len(starts), none)
                tops = samples[starts[1:] - self.head[r]][::-1]
                after[:-1] = best_of.accumulate(tops)[::-1]
                starts = self._base[r] + (starts & self._wrap[r])
                self.blocks[starts >> lb] = after
            self.prefix[r] = best_of.reduce(
                samples[ticks >= opened << lb], initial=none
            )
        self._room[grow] = self._wrap[grow]
        self.reallocations += 1


class VecKernel:
    """Base: one congestion-control law over a row subset of the batch.

    Args:
        rows: Global flow indices (into the :class:`TickState` arrays)
            this kernel owns, ascending.
        rtt: Base RTT per row, seconds.
        mss: Segment size per row, bytes (float).
        rtt_ticks: Per row, an upper bound on the ticks one measured
            RTT spans: base RTT plus a full buffer drained at the link's
            lowest capacity, over the tick length.
        steps: Per row, the ticks its point runs.  Together they bound
            how many per-tick samples a time window can ever hold.
    """

    name = "fluid-vec"
    loss_based = True
    #: The optional ``TickState`` columns :meth:`tick` reads
    #: (``"queue_delay"``); the simulator keeps a column only when some
    #: kernel of the batch reads it.
    reads: Sequence[str] = ()

    def __init__(
        self,
        rows: np.ndarray,
        rtt: np.ndarray,
        mss: np.ndarray,
        rtt_ticks: np.ndarray,
        steps: np.ndarray,
    ) -> None:
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

    def __init__(self, rows, rtt, mss, rtt_ticks, steps) -> None:
        super().__init__(rows, rtt, mss, rtt_ticks, steps)
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

    def __init__(self, rows, rtt, mss, rtt_ticks, steps) -> None:
        super().__init__(rows, rtt, mss, rtt_ticks, steps)
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
        shrink = cwnd_seg < self.w_max_pkts[loc]
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

    def __init__(self, rows, rtt, mss, rtt_ticks, steps) -> None:
        super().__init__(rows, rtt, mss, rtt_ticks, steps)
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

    def __init__(self, rows, rtt, mss, rtt_ticks, steps) -> None:
        super().__init__(rows, rtt, mss, rtt_ticks, steps)
        # One sample per tick over the 10 s window (rtt_ticks / rtt
        # bounds the ticks a second), never more than the run has.
        window = copa_laws.RTT_MIN_WINDOW * rtt_ticks / rtt
        self.rtt_min_filter = VecWindowedFilter(
            np.minimum(window.astype(np.int64) + 3, steps + 1), is_max=False
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
            dq <= 1e-9, np.inf, self.mss / (copa_laws.DELTA * dq)
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
            / (copa_laws.DELTA * np.maximum(w, self.mss))
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
    _probe_rtt_interval = bbr_laws.RTPROP_FILTER_LEN

    def __init__(self, rows, rtt, mss, rtt_ticks, steps) -> None:
        super().__init__(rows, rtt, mss, rtt_ticks, steps)
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
        for out in (held, startup):
            if out is not None and len(out):
                advance[out] = False
        if np.count_nonzero(advance):
            turn = advance.nonzero()[0]
            self.cycle_index[turn] = _NEXT_PHASE.take(self.cycle_index[turn])
            self.cycle_stamp[turn] = _at(now, turn)
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
    _probe_rtt_interval = bbr2_laws.PROBE_RTT_INTERVAL

    def __init__(self, rows, rtt, mss, rtt_ticks, steps) -> None:
        super().__init__(rows, rtt, mss, rtt_ticks, steps)
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
        # The congestion-event gate's RTT (BBR itself never backs off).
        self._last_rtt = _pick(act, rttm, self._last_rtt)
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
    reads = ("queue_delay",)

    def __init__(self, rows, rtt, mss, rtt_ticks, steps) -> None:
        super().__init__(rows, rtt, mss, rtt_ticks, steps)
        self.rate = np.full(self.n, vivace_laws.INITIAL_RATE)
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
        self._last_rtt = _pick(act, rttm, self._last_rtt)
        begin = _and(act, np.isnan(self.mi_start))
        self._begin_mi(begin, now, rttm, dt, qd)
        self.mi_delivered = _pick(
            act, self.mi_delivered + thr * dt, self.mi_delivered
        )
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
                vivace_laws.LATENCY_COEFF,
                vivace_laws.LOSS_COEFF,
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
