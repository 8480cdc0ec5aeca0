"""Congestion-control hot path: per-ACK ``on_ack`` throughput.

The laws refactor put every control-law kernel behind
:mod:`repro.cc.laws` with the ``repro.cc`` classes as thin per-ACK
adapters; this benchmark times that indirection.  Each algorithm's
controller is driven with a synthetic ACK stream (the same shape the
packet simulator produces).  The recorded ACKs/second trajectory is the
repo benchmark's ``cc.acks_per_s.*`` metrics (``benchmarks/e2e``).
"""

import pytest

from repro.cc import make_controller
from repro.cc.laws import canonical_names
from repro.cc.signals import LossEvent, RateSample

ACKS = 5_000
MSS = 1500


def _drive(cc, acks=ACKS):
    """Feed a controller a synthetic bulk-transfer ACK stream."""
    rtt = 0.04
    delivered = 0
    now = 0.0
    for i in range(acks):
        delivered += MSS
        now += rtt / 10.0
        cc.on_ack(
            RateSample(
                rtt=rtt + 0.002 * (i % 7),
                delivery_rate=2e6,
                delivered=delivered,
                delivered_at_send=max(delivered - 10 * MSS, 0),
                acked_bytes=MSS,
                in_flight=10 * MSS,
                is_app_limited=False,
                now=now,
            )
        )
        if i % 500 == 499:  # Sporadic loss exercises on_loss too.
            cc.on_loss(
                LossEvent(lost_bytes=MSS, in_flight=9 * MSS, now=now)
            )
    return cc


@pytest.mark.parametrize("name", canonical_names())
def test_perf_on_ack(benchmark, name):
    benchmark(lambda: _drive(make_controller(name)))
