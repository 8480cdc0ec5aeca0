"""Runtime invariant sanitizer for both simulation substrates.

A :class:`Checker` is threaded through the packet simulator (event
loop, bottleneck link, senders, controllers) and the fluid simulator
(core loop, flows) exactly the way a :class:`repro.obs.bus.Telemetry`
bus is: every instrumented site holds an optional ``check`` attribute
and guards with a single ``if check is not None`` test, so disabled
runs pay one attribute load per site and nothing else.

Enabling:

* pass ``check=Checker()`` to ``run_dumbbell`` / ``run_fluid`` /
  ``DumbbellNetwork`` / ``FluidSimulation``;
* install a process default via :func:`repro.check.set_default` /
  :func:`repro.check.use`; or
* set ``REPRO_CHECK=1`` in the environment (the CLI's ``--check`` flag
  does exactly this, so engine worker processes inherit it).

The first failing invariant raises
:class:`repro.check.errors.InvariantViolation` with the scenario
fingerprint (when running under ``repro.exec``), the simulation time,
and the last N remembered events for the offending flow.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict, Optional

from repro.check import laws as check_laws
from repro.check.errors import InvariantViolation, RecentEvent

#: Pending-event ceiling for the event-loop boundedness check.  Far
#: above anything a legitimate dumbbell run enqueues (the loop keeps at
#: most a handful of events per flow in flight).
MAX_PENDING_EVENTS = 10_000_000


class Checker:
    """Collects invariant hooks and raises on the first violation.

    Args:
        tolerance: Relative tolerance for floating-point rate
            comparisons (fluid-substrate conservation).
        recent: How many events to remember for violation reports.
    """

    def __init__(self, tolerance: float = 1e-6, recent: int = 32) -> None:
        if tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {tolerance}")
        if recent < 1:
            raise ValueError(f"recent must be >= 1, got {recent}")
        self.tolerance = tolerance
        #: Scenario context attached to every violation.
        self.context: Dict[str, Any] = {}
        #: Ring buffer of remembered events (state transitions etc.).
        self.recent: Deque[RecentEvent] = deque(maxlen=recent)
        #: Total individual invariant evaluations performed.
        self.checks_run = 0

    # -- context & reporting ----------------------------------------------

    def set_context(self, **fields: Any) -> None:
        """Attach scenario context (fingerprint, backend, ...)."""
        self.context.update(fields)

    def note(
        self,
        time: float,
        name: str,
        flow_id: Optional[int] = None,
        **fields: Any,
    ) -> None:
        """Remember an event for later violation reports."""
        self.recent.append((time, name, flow_id, fields))

    def fail(
        self,
        check: str,
        message: str,
        *,
        time: Optional[float] = None,
        flow_id: Optional[int] = None,
        cc: Optional[str] = None,
    ) -> None:
        """Raise an :class:`InvariantViolation` for ``check``."""
        recent = [
            event
            for event in self.recent
            if flow_id is None or event[2] is None or event[2] == flow_id
        ]
        raise InvariantViolation(
            message,
            check=check,
            time=time,
            flow_id=flow_id,
            cc=cc,
            fingerprint=self.context.get("fingerprint"),
            context=self.context,
            recent=recent,
        )

    # -- event-loop legality ----------------------------------------------

    def event_loop_tick(self, when: float, now: float, pending: int) -> None:
        """Called before each event dispatch with the loop's clock."""
        self.checks_run += 1
        if when < now:
            self.fail(
                "sim.clock",
                f"event dispatch at t={when} behind the clock t={now}: "
                "the event loop must be monotonic",
                time=now,
            )
        if pending > MAX_PENDING_EVENTS:
            self.fail(
                "sim.queue_bound",
                f"{pending} pending events exceed the "
                f"{MAX_PENDING_EVENTS} bound (runaway self-scheduling?)",
                time=now,
            )

    # -- packet-substrate conservation ------------------------------------

    def link_audit(
        self,
        now: float,
        *,
        offered: int,
        forwarded: int,
        dropped: int,
        queued: int,
        in_service: int,
        buffer_bytes: float,
        gauge: int,
        aqm_dropped: int = 0,
        marked: int = 0,
    ) -> None:
        """Byte-conservation audit at the bottleneck link.

        ``dropped`` is the *total* (tail + AQM early) drop count, with
        ``aqm_dropped`` the AQM share of it; ``marked`` bytes were
        CE-marked and forwarded, so they stay on the forwarded side of
        the conservation identity:
        ``offered == forwarded (incl. marked) + tail_drops + aqm_drops
        + queued + in-service``.
        """
        self.checks_run += 1
        accounted = forwarded + dropped + queued + in_service
        if offered != accounted:
            tail = dropped - aqm_dropped
            self.fail(
                "link.conservation",
                f"offered {offered}B != forwarded {forwarded}B "
                f"(incl. {marked}B marked) + tail drops {tail}B + AQM "
                f"drops {aqm_dropped}B + queued {queued}B + in-service "
                f"{in_service}B (= {accounted}B)",
                time=now,
            )
        if aqm_dropped < 0 or aqm_dropped > dropped:
            self.fail(
                "link.conservation",
                f"AQM drops {aqm_dropped}B outside the total dropped "
                f"{dropped}B: the drop split is corrupt",
                time=now,
            )
        if marked < 0 or marked > forwarded + queued + in_service:
            self.fail(
                "link.conservation",
                f"marked {marked}B exceed the bytes that ever passed "
                f"the queue (forwarded {forwarded}B + queued {queued}B "
                f"+ in-service {in_service}B)",
                time=now,
            )
        if queued < 0 or queued > buffer_bytes:
            self.fail(
                "link.queue_bounds",
                f"queued {queued}B outside [0, {buffer_bytes}B]",
                time=now,
            )
        if gauge != queued:
            self.fail(
                "link.occupancy_gauge",
                f"occupancy-integral gauge {gauge}B disagrees with the "
                f"queue ({queued}B): the mean-queue integral is corrupt",
                time=now,
            )

    def capacity_change(self, now: float, capacity: float) -> None:
        """Trace-legality check for a time-varying capacity step."""
        self.checks_run += 1
        if not math.isfinite(capacity) or capacity <= 0:
            self.fail(
                "link.capacity_trace",
                f"capacity stepped to {capacity!r}B/s: trace scales "
                "must stay finite and positive",
                time=now,
            )

    # -- packet-substrate flow state --------------------------------------

    def flow_update(
        self, now: float, flow_id: Optional[int], cc: Any, in_flight: int
    ) -> None:
        """Per-ACK controller/flow bounds for the packet substrate."""
        self.checks_run += 1
        name = cc.name
        if in_flight < 0:
            self.fail(
                "flow.inflight",
                f"in-flight bytes went negative ({in_flight}B)",
                time=now,
                flow_id=flow_id,
                cc=name,
            )
        cwnd = cc.cwnd
        if not math.isfinite(cwnd) or cwnd < cc.min_cwnd:
            self.fail(
                "cc.cwnd_bounds",
                f"cwnd {cwnd!r}B outside [{cc.min_cwnd}B, inf)",
                time=now,
                flow_id=flow_id,
                cc=name,
            )
        rate = cc.pacing_rate
        if rate is not None and (not math.isfinite(rate) or rate <= 0):
            self.fail(
                "cc.pacing_rate",
                f"pacing rate {rate!r}B/s must be finite and positive",
                time=now,
                flow_id=flow_id,
                cc=name,
            )
        law = check_laws.packet_invariants(name)
        if law is not None:
            error = law(cc)
            if error is not None:
                self.fail(
                    "cc.law", error, time=now, flow_id=flow_id, cc=name
                )

    def state_transition(
        self,
        now: float,
        cc_name: str,
        flow_id: Optional[int],
        old: Optional[str],
        new: str,
        substrate: str,
    ) -> None:
        """Validate a state-machine transition (both substrates)."""
        self.checks_run += 1
        self.note(
            now,
            "cc.state",
            flow_id,
            cc=cc_name,
            substrate=substrate,
            **{"from": old, "to": new},
        )
        states = check_laws.states_for(cc_name, substrate)
        if states is not None and new not in states:
            self.fail(
                "cc.state",
                f"{new!r} is not a {cc_name} state on the {substrate} "
                f"substrate ({sorted(states)})",
                time=now,
                flow_id=flow_id,
                cc=cc_name,
            )
        table = check_laws.transitions_for(cc_name, substrate)
        if table is not None and (old, new) not in table:
            self.fail(
                "cc.transition",
                f"illegal {cc_name} transition {old} -> {new} on the "
                f"{substrate} substrate",
                time=now,
                flow_id=flow_id,
                cc=cc_name,
            )

    # -- fluid substrate ---------------------------------------------------

    def fluid_flow(self, now: float, flow: Any) -> None:
        """Per-tick fluid-flow bounds."""
        self.checks_run += 1
        inflight = flow.inflight
        if not math.isfinite(inflight) or inflight <= 0:
            self.fail(
                "fluid.inflight",
                f"in-flight target {inflight!r}B must be finite and "
                "positive for an active flow",
                time=now,
                flow_id=flow.flow_id,
                cc=flow.name,
            )
        law = check_laws.fluid_invariants(flow.name)
        if law is not None:
            error = law(flow)
            if error is not None:
                self.fail(
                    "fluid.law",
                    error,
                    time=now,
                    flow_id=flow.flow_id,
                    cc=flow.name,
                )

    def fluid_conservation(
        self,
        now: float,
        *,
        total_rate: float,
        capacity: float,
        queue: float,
        buffer_bytes: float,
        slack: float,
        strict: bool,
    ) -> None:
        """Rate-conservation audit for one fluid tick.

        ``strict`` is False on overflow ticks (queue clamped at the
        buffer), where the clamped-queue approximation intentionally
        lets the instantaneous rate sum overshoot capacity; the
        non-negativity and queue-bound checks still apply there.
        """
        self.checks_run += 1
        if not math.isfinite(total_rate) or total_rate < 0:
            self.fail(
                "fluid.rate_conservation",
                f"flow rates sum to {total_rate!r}B/s (must be finite "
                "and non-negative)",
                time=now,
            )
        if strict and total_rate > capacity + slack:
            self.fail(
                "fluid.rate_conservation",
                f"flow rates sum to {total_rate:.1f}B/s > capacity "
                f"{capacity:.1f}B/s (+{slack:.1f}B/s tolerance)",
                time=now,
            )
        if queue < -1e-9 or queue > buffer_bytes + 1e-9:
            self.fail(
                "fluid.queue_bounds",
                f"queue {queue!r}B outside [0, {buffer_bytes}B]",
                time=now,
            )

    # -- vectorized fluid substrate (array states) ----------------------

    def fluid_vec_flows(self, now, inflight, active, flow_ids, cc_names):
        """Per-tick bounds over the vectorized substrate's flow columns.

        The array analogue of :meth:`fluid_flow`: ``now``/``inflight``
        are per-flow float arrays, ``active`` a bool mask, and the
        first offending row (lowest global index, matching the scalar
        loop's flow order) is reported.  Per-CCA law-object invariants
        are scalar-substrate-only — the vec kernels hold column arrays,
        not law objects — so only the state bounds run here.

        Imports numpy lazily so packet-only runs never pay for it.
        """
        from repro.fluidsim.mathops import np

        self.checks_run += int(active.sum())
        bad = active & (~np.isfinite(inflight) | (inflight <= 0))
        if bad.any():
            row = int(np.argmax(bad))
            self.fail(
                "fluid.inflight",
                f"in-flight target {float(inflight[row])!r}B must be "
                "finite and positive for an active flow",
                time=float(now[row]),
                flow_id=int(flow_ids[row]),
                cc=cc_names[row],
            )

    def fluid_vec_conservation(
        self,
        now,
        *,
        total_rate,
        capacity,
        queue,
        buffer_bytes,
        slack,
        strict,
        active,
    ) -> None:
        """Rate-conservation audit over a batch of fluid points.

        The array analogue of :meth:`fluid_conservation`: every
        argument is a per-point array (``strict``/``active`` bool
        masks), and the first offending point is reported.
        """
        from repro.fluidsim.mathops import np

        self.checks_run += int(active.sum())
        bad = active & (~np.isfinite(total_rate) | (total_rate < 0))
        if bad.any():
            p = int(np.argmax(bad))
            self.fail(
                "fluid.rate_conservation",
                f"flow rates sum to {float(total_rate[p])!r}B/s (must "
                "be finite and non-negative)",
                time=float(now[p]),
            )
        bad = active & strict & (total_rate > capacity + slack)
        if bad.any():
            p = int(np.argmax(bad))
            self.fail(
                "fluid.rate_conservation",
                f"flow rates sum to {float(total_rate[p]):.1f}B/s > "
                f"capacity {float(capacity[p]):.1f}B/s "
                f"(+{float(slack[p]):.1f}B/s tolerance)",
                time=float(now[p]),
            )
        bad = active & (
            (queue < -1e-9) | (queue > buffer_bytes + 1e-9)
        )
        if bad.any():
            p = int(np.argmax(bad))
            self.fail(
                "fluid.queue_bounds",
                f"queue {float(queue[p])!r}B outside "
                f"[0, {float(buffer_bytes[p])}B]",
                time=float(now[p]),
            )

    # -- population dynamics (repro.population) -------------------------

    def population_state(self, tick: int, shares: Any) -> None:
        """Simplex validity of a population share matrix.

        ``shares`` is the ``(n_cells, n_strategies)`` array evolved by
        :mod:`repro.population`: every row must be finite,
        non-negative, and sum to 1.  ``tick`` is reported as the
        violation time.
        """
        from repro.fluidsim.mathops import np

        shares = np.asarray(shares, dtype=np.float64)
        self.checks_run += int(shares.shape[0])
        if not np.isfinite(shares).all():
            row = int(np.argmax(~np.isfinite(shares).all(axis=1)))
            self.fail(
                "population.finite",
                f"cell {row} shares {shares[row].tolist()} are not "
                "finite",
                time=float(tick),
            )
        if (shares < -1e-9).any():
            row = int(np.argmax((shares < -1e-9).any(axis=1)))
            self.fail(
                "population.simplex",
                f"cell {row} shares {shares[row].tolist()} contain "
                "negative entries",
                time=float(tick),
            )
        sums = shares.sum(axis=1)
        if np.abs(sums - 1.0).max() > 1e-6:
            row = int(np.argmax(np.abs(sums - 1.0)))
            self.fail(
                "population.simplex",
                f"cell {row} shares sum to {float(sums[row])!r}, "
                "not 1",
                time=float(tick),
            )

    def population_oracle(
        self, tick: int, *, queries: int, tier0: int, tier1: int
    ) -> None:
        """Tier accounting for the population payoff oracle: every
        query must resolve at exactly one tier."""
        self.checks_run += 1
        if min(queries, tier0, tier1) < 0 or tier0 + tier1 != queries:
            self.fail(
                "population.oracle_accounting",
                f"oracle answered tier0={tier0} + tier1={tier1} of "
                f"{queries} queries: every query must resolve at "
                "exactly one tier",
                time=float(tick),
            )

