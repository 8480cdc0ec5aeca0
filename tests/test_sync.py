"""Loss-synchronization analysis (§3.2/§5's trace checks)."""

import pytest

from repro.analysis.sync import (
    classify_regime,
    cluster_loss_events,
    synchronization_index,
)


def test_cluster_groups_nearby_backoffs():
    loss_times = [[1.00, 5.00], [1.01, 9.00]]
    clusters = cluster_loss_events(loss_times, window=0.05)
    assert len(clusters) == 3
    assert clusters[0].size == 2          # Flows 0 and 1 at t≈1.
    assert clusters[1].size == 1
    assert clusters[2].size == 1


def test_cluster_chained_window():
    # 0.9-apart events with a 1.0 window chain into one cluster.
    clusters = cluster_loss_events([[0.0, 0.9, 1.8]], window=1.0)
    assert len(clusters) == 1
    assert clusters[0].start == 0.0
    assert clusters[0].end == 1.8


def test_cluster_empty():
    assert cluster_loss_events([[], []], window=0.1) == []


def test_cluster_window_validation():
    with pytest.raises(ValueError):
        cluster_loss_events([[1.0]], window=0.0)


def test_synchronized_trace_scores_one():
    # Every event hits both flows.
    loss_times = [[1.0, 5.0, 9.0], [1.02, 5.01, 9.03]]
    index = synchronization_index(loss_times, n_flows=2, window=0.1)
    assert index == pytest.approx(1.0)


def test_desynchronized_trace_scores_one_over_n():
    # Alternating solo backoffs.
    loss_times = [[1.0, 5.0], [3.0, 7.0]]
    index = synchronization_index(loss_times, n_flows=2, window=0.1)
    assert index == pytest.approx(0.5)


def test_no_events_scores_zero():
    assert synchronization_index([[], []], 2, 0.1) == 0.0


def test_classify_regimes():
    sync_trace = [[1.0, 5.0], [1.01, 5.01], [1.02, 5.02]]
    desync_trace = [[1.0], [3.0], [5.0]]
    assert classify_regime(sync_trace, 3, 0.1) == "synchronized"
    assert classify_regime(desync_trace, 3, 0.1) == "de-synchronized"


def test_classify_partial():
    # Half the flows per event.
    trace = [[1.0, 5.0], [1.01, 5.01], [9.0], [9.01]]
    label = classify_regime(trace, 4, 0.1)
    assert label == "partial"


def test_validation():
    with pytest.raises(ValueError):
        synchronization_index([[1.0]], 0, 0.1)


def test_fluid_sync_mode_is_detected_as_synchronized():
    """End-to-end: the fluid simulator's imposed sync mode must be
    classified as synchronized from its flows' ``cc.backoff`` events,
    and desync as de-synchronized — closing the loop on §2.4's bounds."""
    from repro.fluidsim import FluidSimulation, FluidSpec
    from repro.obs import Telemetry
    from repro.util.config import LinkConfig

    link = LinkConfig.from_mbps_ms(50, 40, 4)
    labels, index = {}, {}
    for mode in ("sync", "desync"):
        obs = Telemetry()
        sim = FluidSimulation(
            link,
            [FluidSpec("cubic") for _ in range(4)],
            loss_mode=mode,
            seed=1,
            obs=obs,
        )
        sim.run(60)
        backoffs = [[] for _ in range(4)]
        for event in obs.events_named("cc.backoff"):
            backoffs[event.fields["flow_id"]].append(event.time)
        rtt = 0.04 + sim.queue_bytes / link.capacity
        labels[mode] = classify_regime(backoffs, n_flows=4, window=2 * rtt)
        index[mode] = synchronization_index(backoffs, 4, 2 * rtt)
    assert labels["sync"] == "synchronized"
    assert labels["desync"] == "de-synchronized"
    assert index["sync"] == 1.0
    assert index["desync"] == pytest.approx(0.264, abs=5e-4)
