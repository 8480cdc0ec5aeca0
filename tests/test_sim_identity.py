"""Packet-substrate outputs, pinned rather than argued.

``sim_identity.json`` was generated at the commit *before* the packet
substrate went from four events per forwarded packet to two (the
post-bottleneck path folded into one scheduled ACK, callbacks stored
without closures): the full :class:`SimulationResult` except
``events_processed`` — every :class:`FlowResult` field plus the link
aggregates, floats as ``float.hex()`` — of a spread of short dumbbell
runs.  The e2e digests and ``point_identity.json`` cover only
class-averaged throughput, loss and queue fields; these runs also pin
``mean_rtt`` / ``min_rtt`` / ``delivered_bytes`` / ``retransmits`` per
flow, across every AQM, ECN, a capacity trace, finite and staggered
flows, mixed base RTTs, a warm-up and each packet-capable CCA.

Event ties break by scheduling sequence, which removing events
renumbers, so an exact float tie between a folded event and another one
is the one way a substrate change could move these numbers.  If a pin
moves, explain which tie before re-pinning (``python -m tests.identity
sim``, see :mod:`tests.identity`).
"""

import pytest

from tests.identity import load, sim_result

IDENTITY = load("sim")


@pytest.mark.parametrize(
    "case", IDENTITY["cases"], ids=lambda case: case["name"]
)
def test_simulation_result_is_pinned(case):
    assert sim_result(case) == case["result"]
