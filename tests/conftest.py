"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.cc.signals import LossEvent, RateSample
from repro.exec import Engine
from repro.util.config import LinkConfig


@pytest.fixture
def link_100m_40ms():
    """100 Mbps / 40 ms / 5 BDP — the paper's most common setting."""
    return LinkConfig.from_mbps_ms(100, 40, 5)


@pytest.fixture
def link_50m_40ms():
    """50 Mbps / 40 ms / 5 BDP."""
    return LinkConfig.from_mbps_ms(50, 40, 5)


@pytest.fixture
def small_link():
    """A small link for fast packet-level tests (10 Mbps / 20 ms)."""
    return LinkConfig.from_mbps_ms(10, 20, 5)


class ControllerDriver:
    """Feed a congestion controller synthetic ACK/loss signals.

    Simulates a *perfect* pipe of the given rate and RTT: every ``ack()``
    advances the clock by one packet's worth of serialization time and
    delivers a RateSample as a sender would.
    """

    def __init__(self, cc, rate: float = 1_250_000.0, rtt: float = 0.04):
        self.cc = cc
        self.rate = rate
        self.rtt = rtt
        self.now = 0.0
        self.delivered = 0
        self.mss = cc.mss

    def ack(
        self,
        rtt: float = None,
        delivery_rate: float = None,
        in_flight: int = None,
        app_limited: bool = False,
    ) -> RateSample:
        """Deliver one ACK and return the sample that was fed in."""
        self.now += self.mss / self.rate
        prior_delivered = self.delivered
        self.delivered += self.mss
        sample = RateSample(
            rtt=self.rtt if rtt is None else rtt,
            delivery_rate=(
                self.rate if delivery_rate is None else delivery_rate
            ),
            delivered=self.delivered,
            delivered_at_send=max(
                prior_delivered - int(self.rate * self.rtt), 0
            ),
            acked_bytes=self.mss,
            in_flight=(
                int(self.rate * self.rtt) if in_flight is None else in_flight
            ),
            is_app_limited=app_limited,
            now=self.now,
        )
        self.cc.on_ack(sample)
        self.cc.clamp_cwnd()
        return sample

    def acks(self, count: int, **kwargs) -> None:
        """Deliver ``count`` ACKs."""
        for _ in range(count):
            self.ack(**kwargs)

    def run_for(self, seconds: float, **kwargs) -> None:
        """Deliver ACKs at the pipe rate for ``seconds`` of virtual time."""
        end = self.now + seconds
        while self.now < end:
            self.ack(**kwargs)

    def lose(self, packets: int = 1, in_flight: int = None) -> None:
        """Deliver a loss event."""
        event = LossEvent(
            lost_bytes=packets * self.mss,
            in_flight=(
                int(self.rate * self.rtt) if in_flight is None else in_flight
            ),
            now=self.now,
            lost_packets=packets,
        )
        self.cc.on_loss(event)
        self.cc.clamp_cwnd()


@pytest.fixture
def driver_factory():
    """Factory for :class:`ControllerDriver` instances."""
    return ControllerDriver


class CountingEngine(Engine):
    """A sequential, cache-less engine that remembers what each
    ``run_points`` call carried: ``calls[i]`` lists the fingerprints of
    the i-th call's points."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = []

    def run_points(self, points):
        points = list(points)
        self.calls.append([point.fingerprint() for point in points])
        return super().run_points(points)


@pytest.fixture
def counting_engine():
    """A fresh :class:`CountingEngine`."""
    return CountingEngine()
