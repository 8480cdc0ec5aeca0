"""Packet-simulator controller samples, read from the telemetry bus."""

import pytest

from repro.obs import Telemetry
from repro.sim.network import DumbbellNetwork, FlowSpec
from repro.util.config import LinkConfig

INTERVAL = 0.1


@pytest.fixture(scope="module")
def traced_run():
    link = LinkConfig.from_mbps_ms(10, 20, 4)
    obs = Telemetry(sample_interval=INTERVAL)
    net = DumbbellNetwork(link, [FlowSpec("cubic"), FlowSpec("bbr")], obs=obs)
    result = net.run(30)
    return obs, result


def samples_of(obs, flow_id):
    return [s for s in obs.samples if s["flow_id"] == flow_id]


def state_durations(obs, flow_id):
    """Approximate seconds spent per state: one interval per sample."""
    durations = {}
    for sample in samples_of(obs, flow_id):
        if sample["state"] is not None:
            durations[sample["state"]] = (
                durations.get(sample["state"], 0.0) + INTERVAL
            )
    return durations


def test_samples_cover_both_flows(traced_run):
    obs, _result = traced_run
    assert samples_of(obs, 0)
    assert samples_of(obs, 1)
    # ~300 samples per flow at 0.1 s over 30 s.
    assert len(samples_of(obs, 0)) == pytest.approx(300, abs=3)


def test_series_extraction(traced_run):
    obs, _result = traced_run
    samples = samples_of(obs, 0)
    times = [s["time"] for s in samples]
    cwnds = [s["cwnd"] for s in samples]
    assert len(times) == len(cwnds)
    assert all(b >= a for a, b in zip(times, times[1:]))
    assert all(c > 0 for c in cwnds)


def test_bbr_state_recorded_and_cubic_not(traced_run):
    obs, _result = traced_run
    bbr_states = {s["state"] for s in samples_of(obs, 1)}
    assert "PROBE_BW" in bbr_states  # Steady state reached.
    cubic_states = {s["state"] for s in samples_of(obs, 0)}
    assert cubic_states == {None}


def test_bbr_spends_most_time_in_probe_bw(traced_run):
    """§2.1: "BBR spends a majority of time in the ProbeBW state"."""
    obs, _result = traced_run
    durations = state_durations(obs, 1)
    total = sum(durations.values())
    assert durations.get("PROBE_BW", 0.0) > 0.6 * total


def test_bbr_visits_probe_rtt(traced_run):
    """Over 30 s (3 ProbeRTT cycles) the 10 s cadence must show up."""
    obs, _result = traced_run
    durations = state_durations(obs, 1)
    assert "PROBE_RTT" in durations


def test_in_flight_bounded_by_recent_cwnd(traced_run):
    """The sender never transmits beyond cwnd.  In-flight can exceed the
    *current* cwnd transiently when the controller shrinks its target
    (BBR's estimate decaying), so the bound uses the previous sample's
    cwnd as well."""
    obs, _result = traced_run
    for flow_id in (0, 1):
        previous_cwnd = float("inf")
        for sample in samples_of(obs, flow_id):
            bound = max(sample["cwnd"], previous_cwnd) + 1500
            assert sample["in_flight"] <= bound
            previous_cwnd = sample["cwnd"]


def assert_cubic_sawtooth(obs, floor):
    """At least two CUBIC backoffs, each a 0.7 multiplicative decrease
    (or the cwnd floor)."""
    backoffs = [
        e for e in obs.events_named("cc.backoff") if e.fields["cc"] == "cubic"
    ]
    assert len(backoffs) >= 2, "CUBIC should back off more than once"
    for event in backoffs:
        before = event.fields["cwnd_before"]
        assert event.fields["cwnd_after"] == pytest.approx(
            max(0.7 * before, floor), rel=1e-12
        )


def test_cubic_sawtooth_visible_in_cwnd_trace(traced_run):
    obs, _result = traced_run
    assert_cubic_sawtooth(obs, floor=0.0)


def test_interval_validation():
    with pytest.raises(ValueError):
        Telemetry(sample_interval=0.0)
