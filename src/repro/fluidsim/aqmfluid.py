"""Deterministic fluid-model AQM decisions (RED and CoDel).

The packet substrate runs real RED/CoDel per packet
(:mod:`repro.sim.aqm`).  The fluid substrates need the same disciplines
as *deterministic per-tick byte quantities*: RED becomes its expected
drop/mark volume (drop probability × bytes served per tick), CoDel
keeps its exact RFC 8289 state machine but observes the fluid queue's
sojourn once per tick.  Determinism matters twice over — fluid results
must be reproducible without consuming the simulation's RNG stream
(which would perturb the default drop-tail path's seeded trajectories),
and the scalar and vectorized substrates must stay bit-identical, which
they achieve by calling these *same* pure-Python decision objects with
plain floats and applying the returned quantities with identical
arithmetic.

Both classes expose ``tick(now, queue, capacity, dt) -> float``: the
AQM-affected byte volume for this tick (0.0 almost always).  Whether
those bytes are dropped (removed from flow windows) or ECN-marked
(windows untouched, senders back off) is the caller's job, driven by
the spec's ``ecn`` flag.
"""

from __future__ import annotations

from typing import Union

from repro.scenario.spec import (
    BottleneckSpec,
    CoDelSpec,
    DropTailSpec,
    REDSpec,
)


class FluidRed:
    """RED as an expected-byte-volume process.

    The EWMA average tracks the solved fluid queue.  Packet RED updates
    the average once per arrival with weight ``w``; a fluid tick spans
    ``capacity·dt/mss`` arrivals, so the per-tick weight is the
    compounded ``1 − (1 − w)^arrivals`` — the same time constant at any
    tick length.  The drop probability is Floyd's ramp (no count
    correction: uniformization de-burstifies a packet lottery, while the
    fluid volume is already smooth).
    """

    def __init__(
        self, spec: REDSpec, buffer_bytes: float, mss: float, dt: float,
        capacity: float,
    ) -> None:
        self.min_th = spec.min_frac * buffer_bytes
        self.max_th = spec.max_frac * buffer_bytes
        self.max_p = spec.max_p
        self.ecn = spec.ecn
        arrivals = max(capacity * dt / mss, 1.0)
        self.weight = 1.0 - (1.0 - spec.weight) ** arrivals
        self.avg = 0.0

    def tick(
        self, now: float, queue: float, capacity: float, dt: float
    ) -> float:
        """Expected AQM-affected bytes for this tick."""
        self.avg = (1.0 - self.weight) * self.avg + self.weight * queue
        if self.avg < self.min_th:
            return 0.0
        if self.avg >= self.max_th:
            p = 1.0
        else:
            p = (
                self.max_p
                * (self.avg - self.min_th)
                / (self.max_th - self.min_th)
            )
        return p * capacity * dt


class FluidCodel:
    """CoDel driven by the fluid queue's sojourn time.

    Wraps the *exact* packet-substrate state machine
    (:class:`repro.sim.aqm.CoDel`): each tick the queue's sojourn
    ``Q/C`` stands in for the head packet's, and a drop decision is one
    MSS of affected volume (CoDel signals per-packet, not
    per-byte-share, which is what makes it RTT-fair).
    """

    def __init__(self, spec: CoDelSpec, mss: float) -> None:
        # Imported here: only a CoDel point needs the packet substrate.
        from repro.sim.aqm import CoDel

        self.ecn = spec.ecn
        self.mss = float(mss)
        self._codel = CoDel(spec)

    def tick(
        self, now: float, queue: float, capacity: float, dt: float
    ) -> float:
        """One MSS when the CoDel law fires this tick, else 0."""
        if queue <= 0.0:
            # Empty queue: sojourn 0 resets the above-target clock.
            self._codel.on_dequeue(now, 0.0)
            return 0.0
        if self._codel.on_dequeue(now, queue / capacity):
            return self.mss
        return 0.0


FluidAqm = Union[FluidRed, FluidCodel]


def make_fluid_aqm(
    link: BottleneckSpec, dt: float
) -> Union[FluidAqm, None]:
    """The fluid AQM decision object for ``link``, or None for drop-tail."""
    aqm = link.aqm
    if isinstance(aqm, DropTailSpec):
        return None
    if isinstance(aqm, REDSpec):
        return FluidRed(
            aqm,
            buffer_bytes=link.buffer_bytes,
            mss=link.mss,
            dt=dt,
            capacity=link.capacity,
        )
    if isinstance(aqm, CoDelSpec):
        return FluidCodel(aqm, mss=link.mss)
    raise ValueError(f"no fluid model for AQM spec {aqm!r}")
