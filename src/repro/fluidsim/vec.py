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

Telemetry and invariant checks integrate at the same seams as the
scalar loop (overflow drop counters, trace-tick samples, per-tick
in-flight bounds and rate conservation on array state); per-flow typed
events (``cc.backoff`` etc.) and per-CCA law-object checks are scalar-
substrate-only, which is why the runner keeps every instrumented run
on the scalar path.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cc.laws import registry as laws_registry
from repro.fluidsim.aqmfluid import make_fluid_aqm
from repro.fluidsim.core import LOSS_MODES, FluidSpec
from repro.fluidsim.mathops import np
from repro.fluidsim.vec_laws import TickState, VecKernel
from repro.sim.network import FlowResult, SimulationResult
from repro.util.config import LinkConfig


@dataclass
class BatchPoint:
    """One scenario point of a vectorized batch.

    Field-for-field the argument list of :func:`repro.fluidsim.core
    .run_fluid`: one bottleneck link, its fluid flow specs, and the
    run/measurement window, plus the loss mode and RNG seeding that
    this point's trajectory depends on.
    """

    link: LinkConfig
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
        if self.duration <= 0:
            raise ValueError(
                f"duration must be positive, got {self.duration}"
            )
        if not 0 <= self.warmup < self.duration:
            raise ValueError("warmup must lie in [0, duration)")
        self.cc_names = tuple(
            laws_registry.get_spec(spec.cc).name for spec in self.flows
        )


class VecFluidSim:
    """A batch of fluid scenario points advanced in lockstep arrays.

    Args:
        points: Scenario points; each evolves exactly as its own
            :class:`repro.fluidsim.core.FluidSimulation` would.
        trace_interval: As in the scalar simulator, applied batch-wide;
            inherits ``obs.sample_interval`` when unset.
        obs: Optional telemetry bus shared by the whole batch.  Counter
            and gauge totals match a scalar run per point; with more
            than one point the *interleaving* of emissions differs from
            running the points back to back.
        check: Optional invariant checker (defaults to the process-wide
            one); runs the array-state fluid checks each tick.
    """

    def __init__(
        self,
        points: Sequence[BatchPoint],
        trace_interval: Optional[float] = None,
        obs=None,
        check=None,
    ) -> None:
        from repro.check import resolve as resolve_check

        if not points:
            raise ValueError("at least one point is required")
        self.points = list(points)
        self.obs = obs
        self.check = resolve_check(check)
        if trace_interval is None and obs is not None:
            trace_interval = obs.sample_interval
        if trace_interval is not None and trace_interval <= 0:
            raise ValueError(
                f"trace_interval must be positive, got {trace_interval}"
            )
        self.trace_interval = trace_interval

        n_points = len(self.points)
        self.n_points = n_points
        self._rngs = [random.Random(p.seed) for p in self.points]

        # ---- flatten flows (point, flow)-major -----------------------
        pf: List[int] = []  # owning point per flow row
        rtt: List[float] = []
        start: List[float] = []
        stop: List[float] = []
        size: List[float] = []
        mss: List[float] = []
        flow_ids: List[int] = []
        cc_of_row: List[str] = []
        kwargs_of_row: List[Dict[str, object]] = []
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
                stop.append(
                    spec.stop_time if spec.stop_time is not None
                    else math.inf
                )
                size.append(
                    spec.size_bytes if spec.size_bytes is not None
                    else math.inf
                )
                mss.append(float(point.link.mss))
                flow_ids.append(flow_id)
                cc_of_row.append(point.cc_names[flow_id])
                kwargs_of_row.append(dict(spec.cc_kwargs))

        n_flows = len(pf)
        self.n_flows = n_flows
        self._pf = np.array(pf, dtype=np.int64)
        self._rtt = np.array(rtt)
        self._start = np.array(start)
        self._stop = np.array(stop)
        self._size = np.array(size)
        self._mss = np.array(mss)
        self._flow_ids = np.array(flow_ids, dtype=np.int64)
        self._cc_of_row = cc_of_row
        self._starts_p = np.array(starts_p, dtype=np.int64)
        self._counts_py = counts_p
        self._arange_f = np.arange(n_flows, dtype=np.int64)

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
            trace = getattr(point.link, "capacity_trace", None)
            if trace is not None and not trace.is_constant:
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
        #: Per-point AQM byte accounting (fluid analogue of LinkStats).
        self.aqm_dropped_bytes = np.zeros(n_points)
        self.marked_bytes = np.zeros(n_points)
        self.capacity_changes = [0] * n_points

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
        for cc, rows in by_cc.items():
            cls = laws_registry.vec_class(cc)
            idx = np.array(rows, dtype=np.int64)
            kernel = cls(
                idx,
                self._rtt[idx],
                self._mss[idx],
                [kwargs_of_row[r] for r in rows],
                rtt_ticks[idx],
                steps_f[idx],
            )
            self.kernels.append(kernel)
            self._loss_based[idx] = kernel.loss_based

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
        self._sum_shape = (n_points, width)
        self._pad: Optional[np.ndarray] = None
        if min(counts_p) < width:
            self._pad = np.zeros(n_points * width)
            self._pad_slots = (
                self._pf * width + self._arange_f - self._starts_p[self._pf]
            )

        # ---- mutable run state ---------------------------------------
        self._inflight = np.zeros(n_flows)
        for kernel in self.kernels:
            self._inflight[kernel.rows] = kernel.initial_inflight
        self._finished = np.zeros(n_flows, dtype=bool)
        self._delivered = np.zeros(n_flows)
        self._delivered_window = np.zeros(n_flows)
        self._lost = np.zeros(n_flows)
        self._drop_accumulator = np.zeros(n_flows)
        self._drop_threshold = self._mss.copy()
        self._queue_integral = np.zeros(n_points)
        self._time_simulated = np.zeros(n_points)
        self._measure_start = np.zeros(n_points)
        self.queue_bytes = np.zeros(n_points)
        self._has_run = False
        #: Per point, per flow: congestion-backoff times (seconds).
        self.loss_events: List[List[List[float]]] = [
            [[] for _ in range(counts_p[p])] for p in range(n_points)
        ]
        #: Per point: (time, [inflight per flow], queue_bytes) rows.
        self.trace: List[List[Tuple[float, List[float], float]]] = [
            [] for _ in range(n_points)
        ]

    # -- sequential reductions --------------------------------------------

    def _segment_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-point left-to-right sum of a per-flow column.

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
        if self._pad is not None:
            self._pad[self._pad_slots] = values
            values = self._pad
        return np.add.accumulate(values.reshape(self._sum_shape), axis=1)[
            :, -1
        ]

    # -- queue solving ----------------------------------------------------

    def _solve_queue(
        self, w: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-point queue (bytes) implied by in-flight columns ``w``.

        Returns ``(queue, total)`` — the total is the same sequential
        sum the scalar path computes, reused by the overflow handler.
        Equal-RTT points take the closed form; the rest run the scalar
        path's 50-step bisection with converged points frozen (their
        ``lo``/``hi`` stop moving exactly when the scalar loop would
        have ``break``-ed, so iteration counts — and bits — match).
        """
        cap = self._capacity
        total = self._segment_sum(w)
        queue = np.maximum(0.0, total - self._bdp)
        if self._any_uneq:
            uneq = ~self._eq_rtt
            demand = self._segment_sum(np.where(w > 0, w / self._rtt, 0.0))
            queue = np.where(uneq, 0.0, queue)
            bis = uneq & (demand > cap)
            if np.count_nonzero(bis):
                lo = np.zeros(self.n_points)
                hi = total.copy()
                live = bis.copy()
                for _ in range(50):
                    if not np.count_nonzero(live):
                        break
                    mid = (lo + hi) / 2.0
                    qd = mid / cap
                    terms = np.where(
                        w > 0, w / (self._rtt + qd[self._pf]), 0.0
                    )
                    rate = self._segment_sum(terms)
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
        wall_start = perf_counter()
        # Masked-off rows divide by zero and compare NaNs by design
        # (vec_laws, "Rules that keep the mirror exact"); the warnings
        # are silenced once here rather than per kernel call per tick.
        with np.errstate(all="ignore"):
            self._run_ticks()
        if self.obs is not None:
            for p in range(self.n_points):
                self.obs.count("fluid.steps", int(self._steps_p[p]))
            self.obs.record_time("sim.run", perf_counter() - wall_start)
        return self._build_results()

    def _run_ticks(self) -> None:
        check = self.check
        pf = self._pf
        state = TickState(self.n_flows)
        state.dt = self._dt[pf]
        state.inflight = self._inflight
        lost_tick = state.lost_bytes  # shared buffer, scalar's list
        prev_rate = np.zeros(self.n_flows)
        queue_delay = np.zeros(self.n_points)
        now_p = np.zeros(self.n_points)
        measure_started = self._warmup == 0.0
        next_trace = np.zeros(self.n_points)
        trace_on = self.trace_interval is not None

        max_steps = int(self._steps_p.max())
        # Fast-path flags (value-neutral: the skipped expressions are
        # exact identities for batches with these shapes).
        uniform = int(self._steps_p.min()) == max_steps
        plain = (
            not self._start.any()
            and bool(np.isinf(self._stop).all())
            and bool(np.isinf(self._size).all())
        )
        all_started = bool(measure_started.all())
        p_true = np.ones(self.n_points, dtype=bool)
        f_true = np.ones(self.n_flows, dtype=bool)
        for step in range(max_steps):
            if uniform:
                p_act = p_true
                now_p += self._dt
            else:
                p_act = self._steps_p > step
                now_p = np.where(p_act, now_p + self._dt, now_p)
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

            now_f = now_p[pf]
            if uniform and plain:
                act = f_true  # sizes are infinite: nothing finishes
            else:
                act = (
                    p_act[pf]
                    & ~self._finished
                    & (now_f >= self._start)
                    & (now_f < self._stop)
                )

            # 1. Flows update their in-flight targets.
            state.now = now_f
            state.throughput = prev_rate
            state.queue_delay = queue_delay[pf]
            state.rtt_measured = self._rtt + state.queue_delay
            state.active = act
            for kernel in self.kernels:
                kernel.tick(state)
            if act is f_true:
                lost_tick.fill(0.0)
            else:
                lost_tick[act] = 0.0
            if check is not None:
                check.fluid_vec_flows(
                    now_f,
                    state.inflight,
                    act,
                    self._flow_ids,
                    self._cc_of_row,
                )

            w = np.where(act, state.inflight, 0.0)

            # 2-3. Solve the queue; handle overflow.
            queue, total = self._solve_queue(w)
            over = queue > self._buffer
            if np.count_nonzero(over):
                queue, w = self._handle_overflow(
                    state, now_p, w, queue, total, over, lost_tick
                )
            if self._any_aqm:
                queue, w = self._apply_aqm(
                    state, now_p, w, queue, lost_tick
                )
            self.queue_bytes = queue
            queue_delay = queue / self._capacity

            if trace_on:
                due = p_act & (now_p >= next_trace)
                if np.count_nonzero(due):
                    next_trace = np.where(
                        due, now_p + self.trace_interval, next_trace
                    )
                    self._record_trace(due, now_p, w, queue, prev_rate, act)

            # 4. Integrate throughput.
            rate = np.where(w > 0, w / (self._rtt + queue_delay[pf]), 0.0)
            prev_rate = rate
            contrib = rate * state.dt
            self._delivered += contrib
            if all_started:
                self._delivered_window += contrib
            else:
                self._delivered_window += np.where(
                    measure_started[pf], contrib, 0.0
                )
            if not plain:
                done = (w > 0) & (self._delivered >= self._size)
                if np.count_nonzero(done):
                    self._finished = self._finished | done
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
        now_p: np.ndarray,
        w: np.ndarray,
        queue: np.ndarray,
        total: np.ndarray,
        over: np.ndarray,
        lost_tick: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Drop each overflowing point's excess; victims back off."""
        pf = self._pf
        excess = queue - self._buffer
        dead = over & (total <= 0)
        dropping_pts = over & (total > 0)
        if not np.count_nonzero(dropping_pts):
            return np.where(dead, self._buffer, queue), w
        if self.obs is not None:
            for p in np.nonzero(dropping_pts)[0]:
                exc = float(excess[p])
                self.obs.count(
                    "link.dropped_packets",
                    max(int(exc / self._link_mss[p]), 1),
                )
                self.obs.count("link.dropped_bytes", int(exc))
                self.obs.event(
                    "link.drop",
                    time=float(now_p[p]),
                    dropped_bytes=exc,
                    queued_bytes=float(self._buffer[p]),
                )

        # Drops land in proportion to in-flight (= queue) share.
        dropping_f = dropping_pts[pf]
        shares = np.where(dropping_f, w / total[pf], 0.0)
        hit = dropping_f & (w > 0)
        dropped = np.where(hit, excess[pf] * shares, 0.0)
        np.copyto(w, np.maximum(w - dropped, 0.0), where=hit)
        for kernel in self.kernels:
            kernel.on_drop(state, dropped, hit)
        self._lost += dropped
        lost_tick += dropped
        self._drop_accumulator += dropped

        responsive = self._loss_based & (w > 0) & dropping_f
        self._backoff_victims(
            state, now_p, w, shares, responsive, dropping_pts
        )

        solved, _ = self._solve_queue(w)
        np.copyto(
            queue, np.minimum(solved, self._buffer), where=dropping_pts
        )
        if np.count_nonzero(dead):
            np.copyto(queue, self._buffer, where=dead)
        return queue, w

    def _backoff_victims(
        self,
        state: TickState,
        now_p: np.ndarray,
        w: np.ndarray,
        shares: np.ndarray,
        responsive: np.ndarray,
        pts: np.ndarray,
    ) -> None:
        """Select and back off loss victims among ``responsive`` rows.

        ``pts`` masks the points where a congestion signal fired this
        tick (overflow or AQM); the sync/desync/proportional admission
        logic — and its RNG draw order — is the scalar substrate's
        :meth:`repro.fluidsim.core.FluidSimulation._pick_victims`.
        Mutates ``w`` in place for admitted victims.
        """
        pf = self._pf
        victims = np.zeros(self.n_flows, dtype=bool)
        if self._has_sync:
            victims |= responsive & self._sync_p[pf]
        desync = (
            pts & self._desync_p
            if self._has_desync
            else None
        )
        if desync is not None and np.count_nonzero(desync):
            scores = np.where(responsive, shares, -np.inf)
            best = np.maximum.reduceat(scores, self._starts_p)
            # Ties break to the lowest index, like Python's max().
            cand = responsive & (scores == best[pf])
            first = np.minimum.reduceat(
                np.where(cand, self._arange_f, self.n_flows),
                self._starts_p,
            )
            sel = first[desync]
            victims[sel[sel < self.n_flows]] = True
        if self._has_prop:
            prop = (
                responsive
                if self._all_prop
                else responsive
                & ~self._sync_p[pf]
                & ~self._desync_p[pf]
            )
            ready = prop & (
                self._drop_accumulator >= self._drop_threshold
            )
            rows = np.nonzero(ready)[0]
            if len(rows):
                victims[rows] = True
                self._drop_accumulator[rows] = 0.0
                # Jitter the next loss-perception threshold (scalar
                # draw order: per admitted victim, ascending flow id).
                self._drop_threshold[rows] = [
                    self._link_mss[p] * (0.5 + self._rngs[p].random())
                    for p in pf[rows].tolist()
                ]

        rows = np.nonzero(victims)[0]
        if len(rows):
            for kernel in self.kernels:
                kernel.on_loss(state, victims)
            np.minimum(w, state.inflight, out=w, where=victims)
            now = now_p.tolist()
            for p, flow_id in zip(
                pf[rows].tolist(), self._flow_ids[rows].tolist()
            ):
                self.loss_events[p][flow_id].append(now[p])

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
                self.capacity_changes[p] += 1
                if self.obs is not None:
                    self.obs.count("link.capacity_changes")
                    self.obs.event(
                        "link.capacity_change", time=now, capacity=cap
                    )
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
        lost_tick: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Apply this tick's AQM decisions; returns (queue, w).

        The per-point decision objects are the *same* pure-Python
        classes the scalar substrate ticks (:mod:`repro.fluidsim
        .aqmfluid`), fed plain floats, and the returned volumes are
        applied with the overflow handler's exact arithmetic — which is
        what keeps scalar and vec AQM trajectories bit-identical.
        """
        pf = self._pf
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
            return queue, w
        total = self._segment_sum(w)
        firing = (vol > 0.0) & (total > 0.0)
        if not np.count_nonzero(firing):
            return queue, w
        vol = np.where(firing, np.minimum(vol, total), 0.0)

        firing_f = firing[pf]
        shares = np.where(firing_f, w / total[pf], 0.0)
        aff = firing_f & (w > 0)
        amount = np.where(aff, vol[pf] * shares, 0.0)
        # Marks and drops alike feed loss perception (RFC 3168: a mark
        # elicits the same control response as a loss).
        self._drop_accumulator += amount
        drop_hit = aff & ~self._aqm_ecn_f
        dropped = np.where(drop_hit, amount, 0.0)
        np.copyto(w, np.maximum(w - dropped, 0.0), where=drop_hit)
        for kernel in self.kernels:
            kernel.on_drop(state, dropped, drop_hit)
        self._lost += dropped
        lost_tick += dropped

        for p in np.nonzero(firing)[0]:
            p = int(p)
            volume = float(vol[p])
            mss = self._link_mss[p]
            if self._aqms[p].ecn:
                self.marked_bytes[p] += volume
                if self.obs is not None:
                    self.obs.count(
                        "link.ecn_marks", max(int(volume / mss), 1)
                    )
                    self.obs.event(
                        "link.mark",
                        time=float(now_p[p]),
                        marked_bytes=volume,
                        queued_bytes=float(queue[p]),
                    )
            else:
                self.aqm_dropped_bytes[p] += volume
                if self.obs is not None:
                    self.obs.count(
                        "link.aqm_drops", max(int(volume / mss), 1)
                    )
                    self.obs.count(
                        "link.dropped_packets",
                        max(int(volume / mss), 1),
                    )
                    self.obs.count("link.dropped_bytes", int(volume))
                    self.obs.event(
                        "link.drop",
                        time=float(now_p[p]),
                        dropped_bytes=volume,
                        queued_bytes=float(queue[p]),
                        aqm=True,
                    )

        responsive = self._loss_based & (w > 0) & firing_f
        self._backoff_victims(state, now_p, w, shares, responsive, firing)

        solved, _ = self._solve_queue(w)
        np.copyto(
            queue, np.minimum(solved, self._buffer), where=firing
        )
        return queue, w

    # -- tracing ----------------------------------------------------------

    def _record_trace(
        self,
        due: np.ndarray,
        now_p: np.ndarray,
        w: np.ndarray,
        queue: np.ndarray,
        prev_rate: np.ndarray,
        act: np.ndarray,
    ) -> None:
        labels: List[Optional[str]] = [None] * self.n_flows
        if self.obs is not None:
            for kernel in self.kernels:
                names = kernel.state_labels()
                if names is not None:
                    for row, name in zip(kernel.rows, names):
                        labels[int(row)] = name
        w_list = w.tolist()
        for p in np.nonzero(due)[0]:
            p = int(p)
            lo = int(self._starts_p[p])
            hi = lo + self._counts_py[p]
            now = float(now_p[p])
            self.trace[p].append((now, w_list[lo:hi], float(queue[p])))
            if self.obs is None:
                continue
            self.obs.gauge("link.queue_bytes", float(queue[p]))
            for row in range(lo, hi):
                if not act[row]:
                    continue
                self.obs.sample(
                    now,
                    int(self._flow_ids[row]),
                    cc=self._cc_of_row[row],
                    cwnd=w_list[row],
                    in_flight=w_list[row],
                    pacing_rate=float(prev_rate[row]),
                    state=labels[row],
                )

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
            if self.obs is not None:
                self.obs.gauge("link.mean_queue_bytes", mean_queue)
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
    obs=None,
    check=None,
) -> List[SimulationResult]:
    """Run a batch of fluid points through the vectorized substrate.

    ``obs``/``check`` default to the process-wide bus and checker like
    :func:`repro.fluidsim.core.run_fluid`.
    """
    from repro.obs.bus import resolve

    sim = VecFluidSim(points, obs=resolve(obs), check=check)
    return sim.run()


def run_fluid_vec(
    link: LinkConfig,
    flows: Sequence[FluidSpec],
    duration: float,
    warmup: float = 0.0,
    dt: Optional[float] = None,
    loss_mode: str = "proportional",
    seed: int = 0,
    start_jitter: float = 0.0,
    obs=None,
    check=None,
) -> SimulationResult:
    """Drop-in vectorized counterpart of :func:`repro.fluidsim.core
    .run_fluid` — same arguments, bitwise-identical result."""
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
        obs=obs,
        check=check,
    )[0]
