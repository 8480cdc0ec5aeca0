"""Packet-substrate outputs, pinned rather than argued.

``sim_identity.json`` holds the full :class:`SimulationResult` except
``events_processed`` — every :class:`FlowResult` field plus the link
aggregates, floats as ``float.hex()`` — of a spread of short dumbbell
runs.  The e2e digests and ``point_identity.json`` cover only
class-averaged throughput, loss and queue fields; these runs also pin
``mean_rtt`` / ``min_rtt`` / ``delivered_bytes`` / ``retransmits`` per
flow, across every AQM, ECN, capacity traces (a step down under a
standing queue among them), staggered flows, mixed base RTTs, a
warm-up, each packet-capable CCA, CoDel head drops that empty the queue
and a link dense in exact ties.

The first fifteen were generated before the packet substrate went from
four events per forwarded packet to two, the last three before it went
from two to one (the bottleneck deciding each packet at arrival).
Event ties break by scheduling sequence, which removing events
renumbers, so an exact float tie between a folded event and another one
is the one way a substrate change could move these numbers.
``codel-shallow-head-drain`` moved that way and was re-pinned at the
one-event model (docs/SIMULATORS.md, "Ties").  If a pin moves, explain
which tie before re-pinning (``python -m tests.identity sim``, see
:mod:`tests.identity`).

Every run also stays under a quarter of its event budget, the guard
that stops a runaway point (``DumbbellNetwork.event_budget``).
"""

import pytest

from tests.identity import load, run_case, sim_result

IDENTITY = load("sim")


@pytest.mark.parametrize(
    "case", IDENTITY["cases"], ids=lambda case: case["name"]
)
def test_simulation_result_is_pinned(case):
    net, result = run_case(case)
    assert sim_result(result) == case["result"]
    assert result.events_processed < net.event_budget(case["duration"]) / 4
