"""The scalar fluid loop is one loop: plain, checked and sampled runs.

A checker or a telemetry bus only watches a run.  Each case below runs
three times, plain, with a counting checker and with a sampling bus,
and every run must return the same result.  The checker must see one
``fluid_flow`` call per flow-tick and one ``fluid_conservation`` call
per tick, the last tick included.  The digests of the bus's samples and
events, and of the result, are pinned: they are what the loop wrote
before it made one pass over the flows per tick.
"""

import hashlib
import math

import pytest

from repro.check.core import Checker
from repro.fluidsim.core import FluidSimulation
from repro.fluidsim.spec import FluidSpec
from repro.obs.bus import Telemetry
from repro.scenario.spec import BottleneckSpec


def _link(**kwargs):
    return BottleneckSpec.from_mbps_ms(
        **{"capacity_mbps": 20, "rtt_ms": 20, "buffer_bdp": 1, **kwargs}
    )


#: id -> (link, flows, run options, duration, warmup).  Between them:
#: staggered starts, warm-ups that end between ticks, capacity steps,
#: RED with ECN and with drops, CoDel, unequal RTTs, every loss mode
#: and the flows that count drops (BBRv2, Vivace).
CASES = {
    "staggered-trace-proportional": (
        _link(capacity_trace="steps:1.5@0.5,3@1.5"),
        [
            FluidSpec("cubic"),
            FluidSpec("bbr", start_time=0.7),
            FluidSpec("cubic", start_time=1.3),
            FluidSpec("bbr", start_time=2.05),
        ],
        {"loss_mode": "proportional"},
        4.0,
        1.003,
    ),
    "rtts-sync": (
        _link(buffer_bdp=2),
        [
            FluidSpec("cubic", rtt=0.01),
            FluidSpec("cubic", rtt=0.035, start_time=0.5),
            FluidSpec("bbr", rtt=0.05),
            FluidSpec("reno", rtt=0.02),
        ],
        {"loss_mode": "sync"},
        3.0,
        0.5,
    ),
    "drop-counters-desync": (
        _link(buffer_bdp=0.5),
        [
            FluidSpec("bbr2"),
            FluidSpec("vivace"),
            FluidSpec("cubic"),
            FluidSpec("bbr2", start_time=0.4),
        ],
        {"loss_mode": "desync"},
        3.0,
        2.0,
    ),
    "red-ecn-jitter": (
        _link(aqm="red", ecn=True, buffer_bdp=4),
        [FluidSpec("cubic"), FluidSpec("bbr"), FluidSpec("cubic")],
        {"loss_mode": "proportional", "seed": 3, "start_jitter": 0.3},
        3.0,
        1.0,
    ),
    "red-drop-sync": (
        _link(aqm="red", buffer_bdp=4),
        [FluidSpec("cubic"), FluidSpec("bbr2"), FluidSpec("vivace")],
        {"loss_mode": "sync"},
        3.0,
        1.0,
    ),
    "codel-trace-desync": (
        _link(aqm="codel", buffer_bdp=4, capacity_trace="steps:2@0.5"),
        [FluidSpec("cubic"), FluidSpec("bbr", rtt=0.03)],
        {"loss_mode": "desync"},
        3.0,
        0.0,
    ),
}

#: id -> (result, samples, events) digests, written by the loop that
#: walked the flows three times a tick and three more an overflow.  The
#: two cases with BBRv2 and Vivace flows were re-pinned when those
#: flows stopped counting each dropped byte twice (once at the drop,
#: again on the next tick).
PINNED = {
    "codel-trace-desync": (
        "039d5fb84ba6eab0",
        "630f8ec5a3cc486c",
        "8555d70c63a1312f",
    ),
    "drop-counters-desync": (
        "546226d1b98f0e24",
        "e2ff0581cac9f4dd",
        "1c90b6f92f77bf58",
    ),
    "red-drop-sync": (
        "fc90078f4b31f8e0",
        "93ac4da60c6dded9",
        "fe3ed70c67de3bfa",
    ),
    "red-ecn-jitter": (
        "fce8dc3ec218e760",
        "2a736be8754485a4",
        "4f65ec377eec03c4",
    ),
    "rtts-sync": (
        "24cb641967413319",
        "6339fb404f79feac",
        "b1b8657cdeb188f9",
    ),
    "staggered-trace-proportional": (
        "34ab89d1de8da332",
        "951e1238ebbb5123",
        "9cebb5168b0d12fe",
    ),
}


class CountingChecker(Checker):
    """A checker that counts the loop's two per-tick hooks."""

    def __init__(self):
        super().__init__()
        self.flow_calls = 0
        self.tick_calls = 0

    def fluid_flow(self, now, flow):
        self.flow_calls += 1
        super().fluid_flow(now, flow)

    def fluid_conservation(self, now, **fields):
        self.tick_calls += 1
        super().fluid_conservation(now, **fields)


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _run(case, obs=None, check=None):
    link, flows, options, duration, warmup = CASES[case]
    sim = FluidSimulation(link, flows, obs=obs, check=check, **options)
    return sim, sim.run(duration, warmup)


def _ticks(sim, duration):
    """Each tick's time, summed as the loop sums it."""
    now, times = 0.0, []
    for _ in range(math.ceil(duration / sim.dt)):
        now += sim.dt
        times.append(now)
    return times


def digests(case):
    """(result, samples, events) digests of ``case`` run on a bus."""
    bus = Telemetry(sample_interval=0.05)
    _, result = _run(case, obs=bus)
    events = [(e.name, e.time, sorted(e.fields.items())) for e in bus.events]
    return _digest(result), _digest(bus.samples), _digest(events)


@pytest.mark.parametrize("case", sorted(CASES))
def test_plain_checked_and_sampled_runs_agree(case):
    _, plain = _run(case)
    checker = CountingChecker()
    sim, checked = _run(case, check=checker)
    _, sampled = _run(case, obs=Telemetry(sample_interval=0.05))
    assert plain == checked == sampled
    duration = CASES[case][3]
    times = _ticks(sim, duration)
    assert sim._steps_run == len(times)
    assert checker.tick_calls == len(times)
    assert checker.flow_calls == sum(
        now >= flow.start_time for now in times for flow in sim.flows
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_bus_records_what_it_recorded(case):
    assert digests(case) == PINNED[case]
