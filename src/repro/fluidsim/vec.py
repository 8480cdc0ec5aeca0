"""Batched, vectorized fluid simulator: arrays of flows *and* points.

This is the batched implementation of ``backend=fluid``, chosen over
the scalar loop for wide groups of rows by
:func:`repro.experiments.runner.runs_vectorized`.  It
advances a whole batch of scenario points — each the same (link, flow
specs, duration, seed) tuple :class:`repro.fluidsim.core.FluidSimulation`
takes — in one ndarray state block: per-flow columns are concatenated
(point, flow)-major into flat arrays, per-point scalars (capacity,
buffer, dt, queue...) are per-point arrays, and each tick updates every
flow of every still-running point with masked numpy expressions.  The
control laws come from :mod:`repro.fluidsim.vec_laws`, resolved through
the :mod:`repro.cc.laws.registry` ``vec`` column.

The contract with the scalar path is *bitwise* equality, not a
tolerance: for identical (link, flows, duration, warmup, dt, loss_mode,
seed, start_jitter), :func:`run_fluid_vec` produces the same
``SimulationResult`` — bit for bit — as :func:`repro.fluidsim.core
.run_fluid`, and batching points together never changes any point's
trajectory.  Three disciplines make that possible:

* both substrates evaluate power functions through
  :mod:`repro.fluidsim.mathops` (numpy ufuncs are elementwise
  position-independent; all other arithmetic is IEEE-exact either way);
* reductions that the scalar path runs as sequential Python sums are
  evaluated *sequentially* here too (see :meth:`VecFluidSim
  ._segment_sum`) — numpy's pairwise ``sum`` would differ in the last
  ulp and the divergence compounds through the feedback loop;
* randomness is drawn from one ``random.Random(seed)`` *per point*, in
  the scalar path's chronological draw order (start jitter at build
  time, then proportional-mode loss thresholds per admitted victim), so
  the proportional loss mode stays seed-compatible and batch-invariant.

This substrate does no instrumentation: no telemetry bus, so no
samples and no backoff events.  The scalar loop is the one instrumented
implementation of the fluid model, and the runner sends every run with
a live bus or checker there (:func:`repro.experiments.runner
.runs_vectorized`).  The invariant checker's array-state hooks stay —
per-tick in-flight bounds, rate conservation and capacity steps — so a
direct call under a live checker still runs them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.cc.laws import registry as laws_registry
from repro.fluidsim.aqmfluid import make_fluid_aqm
from repro.fluidsim.mathops import np
from repro.fluidsim.spec import FluidSpec
from repro.fluidsim.vec_laws import TickState, VecKernel
from repro.scenario import LOSS_MODES
from repro.scenario.result import FlowResult, SimulationResult
from repro.scenario.spec import BottleneckSpec, check_run_window


class _Points(NamedTuple):
    """Whole points of a batch and their flow rows, point-major: every
    point (index views) or the points a congestion signal hit on one
    tick (index arrays).  ``local`` (each row's position among
    ``pts``) and ``slots`` (each row's cell in a zero-padded ``[k,
    width]`` block) are built only for batches that need them —
    ragged, unequal-RTT or desync ones."""

    pts: Union[slice, np.ndarray]
    rows: Union[slice, np.ndarray]
    pf: np.ndarray  # owning point (batch index) per row
    k: int
    local: Optional[np.ndarray]
    slots: Optional[np.ndarray]


@dataclass
class BatchPoint:
    """One scenario point of a vectorized batch.

    Field-for-field the argument list of :func:`repro.fluidsim.core
    .run_fluid`: one bottleneck link, its fluid flow specs, and the
    run/measurement window, plus the loss mode and RNG seeding that
    this point's trajectory depends on.
    """

    link: BottleneckSpec
    flows: Sequence[FluidSpec]
    duration: float
    warmup: float = 0.0
    dt: Optional[float] = None
    loss_mode: str = "proportional"
    seed: int = 0
    start_jitter: float = 0.0
    cc_names: Tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        if not self.flows:
            raise ValueError("at least one flow is required")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(
                f"loss_mode must be one of {LOSS_MODES}, "
                f"got {self.loss_mode!r}"
            )
        check_run_window(self.duration, self.warmup)
        self.cc_names = tuple(
            laws_registry.get_spec(spec.cc).name for spec in self.flows
        )


class VecFluidSim:
    """A batch of fluid scenario points advanced in lockstep arrays.

    Args:
        points: Scenario points; each evolves exactly as its own
            :class:`repro.fluidsim.core.FluidSimulation` would.
        check: Optional invariant checker (defaults to the process-wide
            one); runs the array-state fluid checks each tick.
    """

    def __init__(
        self,
        points: Sequence[BatchPoint],
        check=None,
    ) -> None:
        from repro.check import resolve as resolve_check

        if not points:
            raise ValueError("at least one point is required")
        self.points = list(points)
        self.check = resolve_check(check)

        n_points = len(self.points)
        self.n_points = n_points
        self._rngs = [random.Random(p.seed) for p in self.points]
        self._draws = [rng.random for rng in self._rngs]

        # ---- flatten flows (point, flow)-major -----------------------
        pf: List[int] = []  # owning point per flow row
        rtt: List[float] = []
        start: List[float] = []
        mss: List[float] = []
        flow_ids: List[int] = []
        cc_of_row: List[str] = []
        starts_p: List[int] = []
        counts_p: List[int] = []
        for p, point in enumerate(self.points):
            rng = self._rngs[p]
            starts_p.append(len(pf))
            counts_p.append(len(point.flows))
            for flow_id, spec in enumerate(point.flows):
                base = spec.rtt if spec.rtt is not None else point.link.rtt
                begin = spec.start_time
                if point.start_jitter > 0:
                    begin += rng.uniform(0.0, point.start_jitter)
                pf.append(p)
                rtt.append(base)
                start.append(begin)
                mss.append(float(point.link.mss))
                flow_ids.append(flow_id)
                cc_of_row.append(point.cc_names[flow_id])

        n_flows = len(pf)
        self.n_flows = n_flows
        self._pf = np.array(pf, dtype=np.int64)
        self._rtt = np.array(rtt)
        self._start = np.array(start)
        self._mss = np.array(mss)
        self._flow_ids = np.array(flow_ids, dtype=np.int64)
        self._cc_of_row = cc_of_row
        self._starts_p = np.array(starts_p, dtype=np.int64)
        self._counts_p = np.array(counts_p, dtype=np.int64)
        self._counts_py = counts_p

        # ---- per-point scalars ---------------------------------------
        dts: List[float] = []
        for p, point in enumerate(self.points):
            lo = starts_p[p]
            min_rtt = min(rtt[lo : lo + counts_p[p]])
            step = point.dt if point.dt is not None else min_rtt / 4.0
            if step <= 0:
                raise ValueError(f"dt must be positive, got {step}")
            dts.append(step)
        self._dt_py = dts
        self._dt = np.array(dts)
        #: The batch's one tick length when every point shares it: the
        #: kernels then read one clock, a float (``TickState.now``).
        self._uniform_dt = (
            float(dts[0]) if dts.count(dts[0]) == n_points else None
        )
        self._capacity = np.array(
            [p.link.capacity for p in self.points], dtype=np.float64
        )
        self._buffer = np.array(
            [p.link.buffer_bytes for p in self.points], dtype=np.float64
        )
        self._link_mss = [p.link.mss for p in self.points]
        self._warmup = np.array([p.warmup for p in self.points])
        self._steps_p = np.array(
            [
                int(math.ceil(p.duration / dts[i]))
                for i, p in enumerate(self.points)
            ],
            dtype=np.int64,
        )
        self._eq_rtt = np.array(
            [
                all(
                    rtt[starts_p[p] + j] == rtt[starts_p[p]]
                    for j in range(counts_p[p])
                )
                for p in range(n_points)
            ],
            dtype=bool,
        )
        # Closed-form BDP anchor (meaningful for equal-RTT points only).
        self._bdp = self._capacity * self._rtt[self._starts_p]
        min_rtt_p = np.array(
            [
                min(rtt[starts_p[p] : starts_p[p] + counts_p[p]])
                for p in range(n_points)
            ]
        )
        self._rate_slack = self._capacity * 1e-6 + 2.0 / min_rtt_p

        # ---- scenario extensions (repro.scenario) --------------------
        # Capacity traces: per-point step-event lists; ``self._capacity``
        # becomes the *current* capacity (the rate slack above keeps the
        # base, like the scalar path).  AQM: one pure-Python decision
        # object per point (shared with the scalar substrate, so both
        # see the same floats).  Both lists are empty/None on the
        # drop-tail/constant default, leaving the tick loop untouched.
        self._cap_events: List[List[Tuple[float, float]]] = []
        self._cap_cursor = [0] * n_points
        trace_points: List[int] = []
        min_capacity = self._capacity.copy()
        for p, point in enumerate(self.points):
            trace = point.link.capacity_trace
            if not trace.is_constant:
                self._cap_events.append(list(trace.change_events()))
                self._capacity[p] = (
                    point.link.capacity * trace.scale_at(0.0)
                )
                min_capacity[p] = point.link.capacity * min(
                    [trace.scale_at(0.0)]
                    + [scale for _, scale in self._cap_events[p]]
                )
                self._bdp[p] = (
                    self._capacity[p] * self._rtt[self._starts_p[p]]
                )
                trace_points.append(p)
            else:
                self._cap_events.append([])
        self._trace_points = trace_points
        self._any_trace = bool(trace_points)
        self._aqms = [
            make_fluid_aqm(point.link, dts[p])
            for p, point in enumerate(self.points)
        ]
        self._aqm_points = [
            p for p, aqm in enumerate(self._aqms) if aqm is not None
        ]
        self._any_aqm = bool(self._aqm_points)
        self._aqm_ecn_f = np.zeros(n_flows, dtype=bool)
        for p in self._aqm_points:
            if self._aqms[p].ecn:
                lo = starts_p[p]
                self._aqm_ecn_f[lo : lo + counts_p[p]] = True
        self._any_ecn = bool(self._aqm_ecn_f.any())

        # ---- kernels: one per control law present in the batch -------
        # A row's measured RTT never exceeds its base RTT plus a full
        # buffer drained at the lowest capacity its trace ever sets;
        # kernels with time windows size their sample rings from it.
        rtt_max = self._rtt + (self._buffer / min_capacity)[self._pf]
        rtt_ticks = rtt_max / self._dt[self._pf]
        steps_f = self._steps_p[self._pf]
        by_cc: Dict[str, List[int]] = {}
        for row, cc in enumerate(cc_of_row):
            by_cc.setdefault(cc, []).append(row)
        self.kernels: List[VecKernel] = []
        self._loss_based = np.zeros(n_flows, dtype=bool)
        # Which kernel owns a row, and the row's index inside it: the
        # overflow path hands kernels their own victims' local indices.
        self._kernel_of = np.zeros(n_flows, dtype=np.int64)
        self._kernel_pos = np.zeros(n_flows, dtype=np.int64)
        for cc, rows in by_cc.items():
            cls = laws_registry.vec_class(cc)
            idx = np.array(rows, dtype=np.int64)
            kernel = cls(
                idx,
                self._rtt[idx],
                self._mss[idx],
                rtt_ticks[idx],
                steps_f[idx],
            )
            self._kernel_of[idx] = len(self.kernels)
            self._kernel_pos[idx] = np.arange(len(idx))
            self.kernels.append(kernel)
            self._loss_based[idx] = kernel.loss_based
        # Only kernels that override a signal handler are called with it.
        self._drop_kernels = [
            (k, kernel)
            for k, kernel in enumerate(self.kernels)
            if type(kernel).on_drop is not VecKernel.on_drop
        ]
        self._loss_kernels = [
            (k, kernel)
            for k, kernel in enumerate(self.kernels)
            if type(kernel).on_loss is not VecKernel.on_loss
        ]
        self._drop_rows = np.zeros(n_flows, dtype=bool)
        for _, kernel in self._drop_kernels:
            self._drop_rows[kernel.rows] = True
        reads = {column for kernel in self.kernels for column in kernel.reads}
        self._reads_queue_delay = "queue_delay" in reads

        modes = [p.loss_mode for p in self.points]
        self._sync_p = np.array([m == "sync" for m in modes], dtype=bool)
        self._desync_p = np.array(
            [m == "desync" for m in modes], dtype=bool
        )
        # Batch-level fast-path flags: which code paths can any point
        # in this batch ever take?  (Value-neutral: skipped branches
        # are exact no-ops for batches without the triggering points.)
        self._has_sync = bool(self._sync_p.any())
        self._has_desync = bool(self._desync_p.any())
        self._has_prop = any(m == "proportional" for m in modes)
        self._all_prop = not (self._has_sync or self._has_desync)
        self._any_uneq = bool((~self._eq_rtt).any())

        # ---- sequential segment sums (see module docstring) ----------
        # Flows are (point, flow)-major, so equal-width points are a
        # [points, flows] block as they stand; ragged batches scatter
        # into a zero-padded one (slot j of point p at p * width + j).
        width = max(counts_p)
        self._width = width
        self._col = np.arange(n_flows) - self._starts_p[self._pf]
        self._pad: Optional[np.ndarray] = None
        pad_slots = None
        if min(counts_p) < width:
            self._pad = np.zeros(n_points * width)
            pad_slots = self._pf * width + self._col
        self._all = _Points(
            pts=slice(None),
            rows=slice(None),
            pf=self._pf,
            k=n_points,
            local=self._pf,
            slots=pad_slots,
        )
        self._need_local = (
            self._pad is not None or self._any_uneq or self._has_desync
        )

        # ---- mutable run state ---------------------------------------
        self._inflight = np.zeros(n_flows)
        for kernel in self.kernels:
            self._inflight[kernel.rows] = kernel.initial_inflight
        self._delivered = np.zeros(n_flows)
        self._delivered_window = np.zeros(n_flows)
        self._lost = np.zeros(n_flows)
        self._drop_accumulator = np.zeros(n_flows)
        self._drop_threshold = self._mss.copy()
        self._queue_integral = np.zeros(n_points)
        self._time_simulated = np.zeros(n_points)
        self._measure_start = np.zeros(n_points)
        self._has_run = False

    # -- sequential reductions --------------------------------------------

    def _select(self, mask: np.ndarray) -> _Points:
        """The points ``mask`` selects, with their rows."""
        pts = mask.nonzero()[0]
        rows = mask[self._pf].nonzero()[0]
        pf = self._pf[rows]
        local = slots = None
        if self._need_local:
            local = (np.cumsum(mask) - 1)[pf]
            if self._pad is not None:
                slots = local * self._width + self._col[rows]
        return _Points(pts, rows, pf, len(pts), local, slots)

    def _segment_sum(
        self, values: np.ndarray, sel: Optional[_Points] = None
    ) -> np.ndarray:
        """Per-point left-to-right sum of a per-flow column — of every
        point, or of the points ``sel`` selects (``values`` then holds
        just their rows).

        Bitwise-identical to the scalar path's ``sum()`` over each
        point's flow list: float addition is not associative, so numpy's
        pairwise reductions (``ndarray.sum``, ``add.reduce``,
        ``add.reduceat``) are off by an ulp often enough to diverge the
        feedback loop.  ``ufunc.accumulate`` is strictly sequential, so
        the last column of a running sum along each ``[points, flows]``
        row is that sum.  The padding slots of a ragged batch add
        ``+0.0`` after a point's last flow, which is exact for these
        non-negative accumulators.
        """
        if sel is None:
            sel = self._all
        if self._pad is not None:
            pad = (
                self._pad
                if sel is self._all
                else np.zeros(sel.k * self._width)
            )
            pad[sel.slots] = values
            values = pad
        return np.add.accumulate(
            values.reshape(sel.k, self._width), axis=1
        )[:, -1]

    # -- queue solving ----------------------------------------------------

    def _solve_queue(
        self, w: np.ndarray, sel: Optional[_Points] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-point queue (bytes) implied by in-flight columns ``w``,
        for every point or the points ``sel`` selects (``w`` then holds
        just their rows).

        Returns ``(queue, total)`` — the total is the same sequential
        sum the scalar path computes, reused by the overflow handler.
        Equal-RTT points take the closed form; the rest run the scalar
        path's 50-step bisection with converged points frozen (their
        ``lo``/``hi`` stop moving exactly when the scalar loop would
        have ``break``-ed, so iteration counts — and bits — match).
        """
        if sel is None:
            sel = self._all
        total = self._segment_sum(w, sel)
        bdp = self._bdp if sel is self._all else self._bdp[sel.pts]
        queue = np.maximum(0.0, total - bdp)
        if self._any_uneq:
            cap = self._capacity[sel.pts]
            uneq = ~self._eq_rtt[sel.pts]
            rtt = self._rtt[sel.rows]
            demand = self._segment_sum(np.where(w > 0, w / rtt, 0.0), sel)
            queue = np.where(uneq, 0.0, queue)
            bis = uneq & (demand > cap)
            if np.count_nonzero(bis):
                lo = np.zeros(sel.k)
                hi = total.copy()
                live = bis.copy()
                for _ in range(50):
                    if not np.count_nonzero(live):
                        break
                    mid = (lo + hi) / 2.0
                    qd = mid / cap
                    terms = np.where(w > 0, w / (rtt + qd[sel.local]), 0.0)
                    rate = self._segment_sum(terms, sel)
                    go_lo = live & (rate > cap)
                    lo = np.where(go_lo, mid, lo)
                    hi = np.where(live & ~go_lo, mid, hi)
                    live = live & ~(hi - lo < 1.0)
                queue = np.where(bis, (lo + hi) / 2.0, queue)
        return queue, total

    # -- main loop --------------------------------------------------------

    def run(self) -> List[SimulationResult]:
        """Advance every point to completion; results in point order."""
        if self._has_run:
            raise RuntimeError(
                "VecFluidSim.run() may only be called once per instance "
                "(accumulators are not reset); build a new batch for "
                "another trial"
            )
        self._has_run = True
        # Masked-off rows divide by zero and compare NaNs by design
        # (vec_laws, "Rules that keep the mirror exact"); the warnings
        # are silenced once here rather than per kernel call per tick.
        with np.errstate(all="ignore"):
            self._run_ticks()
        return self._build_results()

    def _run_ticks(self) -> None:
        check = self.check
        pf = self._pf
        state = TickState(self.n_flows)
        # A uniform clock is one float: every running point's time is
        # the same sum of the same ``dt``s (a point that stopped early
        # has no live row left to read it).
        dt = self._uniform_dt
        clock = None if dt is None else 0.0
        state.dt = self._dt[pf] if dt is None else dt
        state.inflight = self._inflight
        prev_rate = np.zeros(self.n_flows)
        queue_delay = np.zeros(self.n_points)
        # One RTT denominator per tick: the rate at the end of tick t
        # and the RTT a flow measures at the start of tick t + 1.
        rtt_measured = self._rtt + queue_delay[pf]
        now_p = np.zeros(self.n_points)
        measure_started = self._warmup == 0.0

        max_steps = int(self._steps_p.max())
        # Fast-path flags (value-neutral: the skipped expressions are
        # exact identities for batches with these shapes).
        uniform = int(self._steps_p.min()) == max_steps
        all_started = bool(measure_started.all())
        # Clocks only advance and a flow sends from its start to the
        # end, so in a uniform batch a tick on which every row is live
        # is followed by such ticks only: from then on no live-row mask
        # is built.
        live_for_good = False
        p_true = np.ones(self.n_points, dtype=bool)
        f_true = np.ones(self.n_flows, dtype=bool)
        for step in range(max_steps):
            if uniform:
                p_act = p_true
                now_p += self._dt
            else:
                p_act = self._steps_p > step
                now_p = np.where(p_act, now_p + self._dt, now_p)
            if clock is not None:
                clock += dt
            if self._any_trace:
                self._apply_capacity_steps(now_p)
            if not all_started:
                newly = p_act & ~measure_started & (
                    now_p >= self._warmup
                )
                if np.count_nonzero(newly):
                    measure_started = measure_started | newly
                    self._measure_start = np.where(
                        newly, now_p, self._measure_start
                    )
                    self._delivered_window[newly[pf]] = 0.0
                    all_started = bool(measure_started.all())

            now_f = now_p[pf] if clock is None else clock
            if live_for_good:
                act = f_true
            else:
                act = p_act[pf] & (now_f >= self._start)
                if uniform and act.all():
                    live_for_good = True
                    act = f_true

            # 1. Flows update their in-flight targets.
            state.now = now_f
            state.throughput = prev_rate
            if self._reads_queue_delay:
                state.queue_delay = queue_delay[pf]
            state.rtt_measured = rtt_measured
            state.active = act
            state.all_live = act is f_true
            for kernel in self.kernels:
                kernel.tick(state)
            if act is f_true:
                w = state.inflight.copy()
            else:
                w = np.where(act, state.inflight, 0.0)
            if check is not None:
                check.fluid_vec_flows(
                    now_p[pf],
                    state.inflight,
                    act,
                    self._flow_ids,
                    self._cc_of_row,
                )

            # 2-3. Solve the queue; handle overflow.
            queue, total = self._solve_queue(w)
            over = queue > self._buffer
            if np.count_nonzero(over):
                self._handle_overflow(state, w, queue, total, over)
            if self._any_aqm:
                self._apply_aqm(state, now_p, w, queue)
            queue_delay = queue / self._capacity

            # 4. Integrate throughput.  Every row of ``w`` is >= +0.0
            # (not live: +0.0; live: a positive window, trimmed by drops
            # to no less than +0.0, backed off to the minimum of two
            # positives) and the denominator is a positive base RTT plus
            # a non-negative delay, so ``w / d`` is exactly +0.0 where
            # ``w`` is: bit for bit the scalar loop's rate-0 branch for
            # flows with nothing in flight.
            rtt_measured = self._rtt + queue_delay[pf]
            rate = w / rtt_measured
            prev_rate = rate
            contrib = rate * state.dt
            self._delivered += contrib
            if all_started:
                self._delivered_window += contrib
            else:
                self._delivered_window += np.where(
                    measure_started[pf], contrib, 0.0
                )
            if check is not None:
                check.fluid_vec_conservation(
                    now_p,
                    total_rate=self._segment_sum(rate),
                    capacity=self._capacity,
                    queue=queue,
                    buffer_bytes=self._buffer,
                    slack=self._rate_slack,
                    strict=queue < self._buffer - 1e-9,
                    active=p_act,
                )
            if uniform and all_started:
                self._queue_integral += queue * self._dt
                self._time_simulated += self._dt
            else:
                tally = p_act & measure_started
                self._queue_integral = self._queue_integral + np.where(
                    tally, queue * self._dt, 0.0
                )
                self._time_simulated = self._time_simulated + np.where(
                    tally, self._dt, 0.0
                )

    # -- overflow ---------------------------------------------------------

    def _handle_overflow(
        self,
        state: TickState,
        w: np.ndarray,
        queue: np.ndarray,
        total: np.ndarray,
        over: np.ndarray,
    ) -> None:
        """Drop each overflowing point's excess; victims back off.
        Updates ``queue`` and ``w`` in place."""
        excess = queue - self._buffer
        dead = over & (total <= 0)
        if np.count_nonzero(dead):
            np.copyto(queue, self._buffer, where=dead)
        dropping = over & (total > 0)
        if not np.count_nonzero(dropping):
            return
        self._signal(state, w, queue, total, dropping, excess)

    def _signal(
        self,
        state: TickState,
        w: np.ndarray,
        queue: np.ndarray,
        total: np.ndarray,
        fired: np.ndarray,
        volume: np.ndarray,
        marks: bool = False,
    ) -> None:
        """Land ``volume[p]`` bytes of congestion signal on every point
        ``fired`` selects, back its victims off and re-solve its queue —
        touching only those points' rows.

        A point's flows take the signal in proportion to their in-flight
        share (Assumption 3 of §2.3).  It is dropped — trimmed from
        ``w`` and counted lost — except, with ``marks`` (an AQM signal),
        on ECN points, where it is only marked.  Dropped or marked, it
        feeds loss perception.  The rows are gathered once and written
        back once; per row the arithmetic is the full-width masked
        expressions', so the bits are too: ``w`` is >= +0.0 and a fired
        point's total is positive, so a flow with nothing in flight gets
        a share and an amount of exactly +0.0, which adding, trimming
        and clamping at 0.0 leave as the masks did.  Updates ``queue``
        and ``w`` in place.
        """
        sel = self._select(fired)
        rows = sel.rows
        w_r = w[rows]
        shares = w_r / total[sel.pf]
        amount = volume[sel.pf] * shares
        acc_r = self._drop_accumulator[rows] + amount
        dropped = amount
        kept = None  # ECN rows: marked, not dropped
        if marks and self._any_ecn:
            kept = self._aqm_ecn_f[rows]
            dropped = np.where(kept, 0.0, amount)
        if self._drop_kernels:
            hit = self._drop_rows[rows] & (w_r > 0)
            if kept is not None:
                hit &= ~kept
            hit = hit.nonzero()[0]
            for kernel, mine, loc in self._split(
                self._drop_kernels, rows[hit]
            ):
                kernel.on_drop(state, loc, dropped[hit[mine]])
        w_r = np.maximum(w_r - dropped, 0.0)
        self._lost[rows] += dropped

        responsive = self._loss_based[rows] & (w_r > 0)
        self._backoff_victims(state, sel, w_r, shares, responsive, acc_r)
        self._drop_accumulator[rows] = acc_r
        w[rows] = w_r

        solved, _ = self._solve_queue(w_r, sel)
        queue[sel.pts] = np.minimum(solved, self._buffer[sel.pts])

    def _split(self, kernels, rows: np.ndarray):
        """``(kernel, positions in rows, its local rows)`` for each of
        ``kernels`` owning some of ``rows`` — rows only they own."""
        if len(kernels) == 1:
            return [(kernels[0][1], slice(None), self._kernel_pos[rows])]
        owner = self._kernel_of[rows]
        split = []
        for k, kernel in kernels:
            mine = (owner == k).nonzero()[0]
            if len(mine):
                split.append((kernel, mine, self._kernel_pos[rows[mine]]))
        return split

    def _backoff_victims(
        self,
        state: TickState,
        sel: _Points,
        w_r: np.ndarray,
        shares: np.ndarray,
        responsive: np.ndarray,
        acc_r: np.ndarray,
    ) -> None:
        """Select and back off loss victims among the ``responsive``
        rows of the signalled points ``sel``.

        ``w_r``, ``shares``, ``responsive`` and ``acc_r`` (the
        loss-perception accumulators) are columns over ``sel``'s rows;
        the sync/desync/proportional admission logic — and its RNG draw
        order — is the scalar substrate's
        :meth:`repro.fluidsim.core.FluidSimulation._signal`.
        Kernels back off only their victims, by local index.  Mutates
        ``w_r`` and ``acc_r`` for admitted victims.
        """
        rows, pf = sel.rows, sel.pf
        if self._all_prop:
            hit = self._perceived(sel, responsive, acc_r)
        else:
            victims = np.zeros(len(pf), dtype=bool)
            if self._has_sync:
                victims |= responsive & self._sync_p[pf]
            desync = self._desync_p[sel.pts] if self._has_desync else None
            if desync is not None and np.count_nonzero(desync):
                counts = self._counts_p[sel.pts]
                starts = np.cumsum(counts) - counts
                scores = np.where(responsive, shares, -np.inf)
                best = np.maximum.reduceat(scores, starts)
                # Ties break to the lowest index, like Python's max().
                cand = responsive & (scores == best[sel.local])
                first = np.minimum.reduceat(
                    np.where(cand, np.arange(len(pf)), len(pf)), starts
                )[desync]
                victims[first[first < len(pf)]] = True
            if self._has_prop:
                prop = responsive & ~self._sync_p[pf] & ~self._desync_p[pf]
                victims[self._perceived(sel, prop, acc_r)] = True
            hit = victims.nonzero()[0]
        if not len(hit):
            return
        vrows = rows[hit]
        for kernel, _, loc in self._split(self._loss_kernels, vrows):
            kernel.on_loss(state, loc)
        w_r[hit] = np.minimum(w_r[hit], state.inflight[vrows])

    def _perceived(
        self, sel: _Points, prop: np.ndarray, acc_r: np.ndarray
    ) -> np.ndarray:
        """Proportional mode: the ``prop`` rows (positions among
        ``sel``'s rows) whose accumulated drops reached their
        loss-perception threshold.  Each gets a fresh jittered
        threshold — scalar draw order: per admitted victim, ascending
        flow id — and its accumulator (in ``acc_r``) is reset."""
        ready = prop & (acc_r >= self._drop_threshold[sel.rows])
        ready = ready.nonzero()[0]
        if len(ready):
            acc_r[ready] = 0.0
            mss, draw = self._link_mss, self._draws
            self._drop_threshold[sel.rows[ready]] = [
                mss[p] * (0.5 + draw[p]()) for p in sel.pf[ready].tolist()
            ]
        return ready

    def _apply_capacity_steps(self, now_p: np.ndarray) -> None:
        """Apply due capacity-trace steps to traced points.

        Mirrors the scalar substrate: a step takes effect on the first
        tick whose time reaches the step time, rescaling the point's
        capacity *and* its closed-form BDP anchor (the scalar path
        recomputes ``capacity · rtt`` fresh each solve).
        """
        for p in self._trace_points:
            events = self._cap_events[p]
            cursor = self._cap_cursor[p]
            if cursor >= len(events):
                continue
            now = float(now_p[p])
            base = self.points[p].link.capacity
            moved = False
            while cursor < len(events) and now >= events[cursor][0]:
                scale = events[cursor][1]
                cursor += 1
                cap = base * scale
                self._capacity[p] = cap
                if self.check is not None:
                    self.check.capacity_change(now, cap)
                moved = True
            if moved:
                self._cap_cursor[p] = cursor
                self._bdp[p] = (
                    self._capacity[p] * self._rtt[self._starts_p[p]]
                )

    def _apply_aqm(
        self,
        state: TickState,
        now_p: np.ndarray,
        w: np.ndarray,
        queue: np.ndarray,
    ) -> None:
        """Apply this tick's AQM decisions to ``queue`` and ``w``.

        The per-point decision objects are the *same* pure-Python
        classes the scalar substrate ticks (:mod:`repro.fluidsim
        .aqmfluid`), fed plain floats, and the returned volumes are
        applied with the overflow handler's exact arithmetic — which is
        what keeps scalar and vec AQM trajectories bit-identical.
        """
        vol = np.zeros(self.n_points)
        fired = False
        for p in self._aqm_points:
            v = self._aqms[p].tick(
                float(now_p[p]),
                float(queue[p]),
                float(self._capacity[p]),
                self._dt_py[p],
            )
            if v > 0.0:
                vol[p] = v
                fired = True
        if not fired:
            return
        total = self._segment_sum(w)
        firing = (vol > 0.0) & (total > 0.0)
        if not np.count_nonzero(firing):
            return
        vol = np.minimum(vol, total)
        # Marks and drops alike feed loss perception (RFC 3168: a mark
        # elicits the same control response as a loss).
        self._signal(state, w, queue, total, firing, vol, marks=True)

    # -- results ----------------------------------------------------------

    def _build_results(self) -> List[SimulationResult]:
        delivered = self._delivered.tolist()
        window = self._delivered_window.tolist()
        lost = self._lost.tolist()
        results = []
        for p, point in enumerate(self.points):
            lo = int(self._starts_p[p])
            count = self._counts_py[p]
            measured = max(
                point.duration - point.warmup, self._dt_py[p]
            )
            flows = []
            for j in range(count):
                row = lo + j
                sent = delivered[row] + lost[row]
                flows.append(
                    FlowResult(
                        flow_id=j,
                        cc=self._cc_of_row[row],
                        throughput=window[row] / measured,
                        mean_rtt=None,
                        min_rtt=float(self._rtt[row]),
                        loss_rate=(
                            lost[row] / sent if sent > 0 else 0.0
                        ),
                        delivered_bytes=int(window[row]),
                        retransmits=int(lost[row] / point.link.mss),
                    )
                )
            time_sim = float(self._time_simulated[p])
            mean_queue = (
                float(self._queue_integral[p]) / time_sim
                if time_sim > 0
                else 0.0
            )
            total_sent = sum(delivered[lo : lo + count]) + sum(
                lost[lo : lo + count]
            )
            drop_rate = (
                sum(lost[lo : lo + count]) / total_sent
                if total_sent > 0
                else 0.0
            )
            results.append(
                SimulationResult(
                    flows=flows,
                    duration=point.duration,
                    warmup=point.warmup,
                    mean_queue_bytes=mean_queue,
                    mean_queuing_delay=mean_queue / point.link.capacity,
                    drop_rate=drop_rate,
                    events_processed=int(self._steps_p[p]),
                )
            )
        return results


def run_fluid_vec_batch(
    points: Sequence[BatchPoint],
    check=None,
) -> List[SimulationResult]:
    """Run a batch of fluid points through the vectorized substrate.

    ``check`` defaults to the process-wide checker like
    :func:`repro.fluidsim.core.run_fluid`.
    """
    return VecFluidSim(points, check=check).run()


def run_fluid_vec(
    link: BottleneckSpec,
    flows: Sequence[FluidSpec],
    duration: float,
    warmup: float = 0.0,
    dt: Optional[float] = None,
    loss_mode: str = "proportional",
    seed: int = 0,
    start_jitter: float = 0.0,
    check=None,
) -> SimulationResult:
    """Vectorized counterpart of :func:`repro.fluidsim.core.run_fluid`:
    its arguments minus the telemetry bus, bitwise-identical result."""
    return run_fluid_vec_batch(
        [
            BatchPoint(
                link=link,
                flows=flows,
                duration=duration,
                warmup=warmup,
                dt=dt,
                loss_mode=loss_mode,
                seed=seed,
                start_jitter=start_jitter,
            )
        ],
        check=check,
    )[0]
