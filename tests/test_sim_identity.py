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
moves, explain which tie — do not re-pin.  (``python
tests/test_sim_identity.py`` rewrites the outputs for the cases in the
file; it exists to record how the file was made.)
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.scenario import BottleneckSpec
from repro.sim import FlowSpec, run_dumbbell

PATH = Path(__file__).parent / "sim_identity.json"
IDENTITY = json.loads(PATH.read_text())


def run_case(case):
    """Run one pinned case; returns the full ``SimulationResult``."""
    return run_dumbbell(
        BottleneckSpec.from_mbps_ms(**case["link"]),
        [FlowSpec(**flow) for flow in case["flows"]],
        duration=case["duration"],
        warmup=case.get("warmup", 0.0),
    )


def _pin(value):
    return value.hex() if isinstance(value, float) else value


def pinned(result):
    """Everything a run returns except the event count, floats as hex."""
    doc = dataclasses.asdict(result)
    del doc["events_processed"]
    doc["flows"] = [
        {key: _pin(value) for key, value in flow.items()}
        for flow in doc["flows"]
    ]
    return {key: _pin(value) for key, value in doc.items()}


@pytest.mark.parametrize(
    "case", IDENTITY["cases"], ids=lambda case: case["name"]
)
def test_simulation_result_is_pinned(case):
    assert pinned(run_case(case)) == case["result"]


if __name__ == "__main__":  # pragma: no cover - provenance, not a test
    IDENTITY["generated_at"] = sys.argv[1]
    for case in IDENTITY["cases"]:
        case["result"] = pinned(run_case(case))
    lines = ",\n".join(
        "  " + json.dumps(case) for case in IDENTITY["cases"]
    )
    PATH.write_text(
        '{\n "generated_at": %s,\n "cases": [\n%s\n ]\n}\n'
        % (json.dumps(IDENTITY["generated_at"]), lines)
    )
