"""RED active queue management."""

import pytest

from repro.scenario import REDSpec
from repro.sim.aqm import RED
from repro.sim.network import FlowSpec, run_dumbbell
from repro.util.config import LinkConfig


class TestREDSpec:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            REDSpec(min_frac=0.5, max_frac=0.5)
        with pytest.raises(ValueError):
            REDSpec(min_frac=0, max_frac=0.5)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            REDSpec(max_p=0)
        with pytest.raises(ValueError):
            REDSpec(weight=1.5)

    def test_rule_of_thumb_thresholds(self):
        red = RED(REDSpec(), 600_000)
        assert red.min_threshold == pytest.approx(100_000)
        assert red.max_threshold == pytest.approx(300_000)


class TestREDBehaviour:
    def make(self, **kwargs):
        defaults = dict(
            min_frac=0.1,
            max_frac=0.3,
            max_p=0.1,
            weight=0.5,  # Fast-moving average for unit tests.
            seed=1,
        )
        defaults.update(kwargs)
        # Thresholds of 10 000 and 30 000 bytes.
        return RED(REDSpec(**defaults), 100_000)

    def test_no_drops_below_min_threshold(self):
        red = self.make()
        assert not any(red.should_drop(5_000) for _ in range(100))

    def test_always_drops_above_max_threshold(self):
        red = self.make()
        for _ in range(20):
            red.should_drop(100_000)  # Pump the average up.
        assert red.should_drop(100_000)

    def test_probabilistic_region_drops_some(self):
        red = self.make()
        decisions = [red.should_drop(20_000) for _ in range(500)]
        assert any(decisions)
        assert not all(decisions)

    def test_average_is_smoothed(self):
        red = self.make(weight=0.002)
        red.should_drop(1_000_000)
        assert red.avg < 10_000  # One sample barely moves the EWMA.

    def test_deterministic_per_seed(self):
        a = self.make(seed=7)
        b = self.make(seed=7)
        queue = [15_000, 20_000, 25_000] * 50
        assert [a.should_drop(q) for q in queue] == [
            b.should_drop(q) for q in queue
        ]


class TestREDEndToEnd:
    def test_red_keeps_queue_below_droptail(self):
        link = LinkConfig.from_mbps_ms(10, 20, 8)
        flows = [FlowSpec("cubic"), FlowSpec("cubic")]
        plain = run_dumbbell(link, flows, duration=30, warmup=5)
        red = run_dumbbell(
            link.with_aqm("red"), flows, duration=30, warmup=5
        )
        assert red.mean_queuing_delay < plain.mean_queuing_delay
        # Early drops happen while the physical buffer still has room.
        assert red.drop_rate > 0

    def test_red_sustains_utilization(self):
        link = LinkConfig.from_mbps_ms(10, 20, 8)
        result = run_dumbbell(
            link.with_aqm("red"),
            [FlowSpec("cubic"), FlowSpec("cubic")],
            duration=30,
            warmup=5,
        )
        total = result.aggregate_throughput() * 8 / 1e6
        assert total > 8.0

    def test_bbr_vs_cubic_under_red(self):
        """BBR (loss-agnostic) shrugs off RED's early drops while CUBIC
        backs off on each — BBR's edge grows under RED."""
        link = LinkConfig.from_mbps_ms(10, 20, 8)
        flows = [FlowSpec("cubic"), FlowSpec("bbr")]
        plain = run_dumbbell(link, flows, duration=60, warmup=10)
        red = run_dumbbell(
            link.with_aqm("red"), flows, duration=60, warmup=10
        )
        bbr_share_plain = plain.flows[1].throughput
        bbr_share_red = red.flows[1].throughput
        assert bbr_share_red > bbr_share_plain
