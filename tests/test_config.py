"""LinkConfig derived quantities and validation."""

import pytest

from repro.util.config import LinkConfig


def test_from_mbps_ms():
    link = LinkConfig.from_mbps_ms(100, 40, 5)
    assert link.capacity == pytest.approx(12.5e6)
    assert link.rtt == pytest.approx(0.04)
    assert link.buffer_bdp == 5


def test_bdp_bytes():
    link = LinkConfig.from_mbps_ms(100, 40, 5)
    # 100 Mbps × 40 ms = 500 KB.
    assert link.bdp_bytes == pytest.approx(500_000)


def test_buffer_bytes_scales_with_bdp():
    link = LinkConfig.from_mbps_ms(100, 40, 5)
    assert link.buffer_bytes == pytest.approx(5 * link.bdp_bytes)


def test_buffer_packets():
    link = LinkConfig.from_mbps_ms(100, 40, 3)
    assert link.buffer_packets == pytest.approx(3 * 500_000 / 1500)


def test_reporting_properties():
    link = LinkConfig.from_mbps_ms(50, 80, 2)
    assert link.capacity_mbps == pytest.approx(50)
    assert link.rtt_ms == pytest.approx(80)


def test_max_queuing_delay():
    link = LinkConfig.from_mbps_ms(100, 40, 5)
    # Full buffer drains in buffer_bdp × rtt.
    assert link.max_queuing_delay == pytest.approx(5 * 0.04)


def test_with_buffer_bdp_returns_new_config():
    link = LinkConfig.from_mbps_ms(100, 40, 5)
    other = link.with_buffer_bdp(10)
    assert other.buffer_bdp == 10
    assert link.buffer_bdp == 5  # Original untouched (frozen).
    assert other.capacity == link.capacity


def test_describe_mentions_key_parameters():
    text = LinkConfig.from_mbps_ms(100, 40, 5).describe()
    assert "100" in text and "40" in text and "5" in text


@pytest.mark.parametrize(
    "kwargs",
    [
        {"capacity": 0, "rtt": 0.04, "buffer_bdp": 5},
        {"capacity": -1, "rtt": 0.04, "buffer_bdp": 5},
        {"capacity": 1e6, "rtt": 0, "buffer_bdp": 5},
        {"capacity": 1e6, "rtt": 0.04, "buffer_bdp": 0},
        {"capacity": 1e6, "rtt": 0.04, "buffer_bdp": -2},
        {"capacity": 1e6, "rtt": 0.04, "buffer_bdp": 5, "mss": 0},
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        LinkConfig(**kwargs)


def test_frozen():
    link = LinkConfig.from_mbps_ms(100, 40, 5)
    with pytest.raises(AttributeError):
        link.capacity = 1.0
