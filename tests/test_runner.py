"""Scenario runner: backend dispatch, trials, throughput functions."""

import pytest

from repro.core.game import GroupGame
from repro.experiments.runner import (
    distribution_payoff_fn,
    expand_mix,
    group_payoff_fn,
    run_mix,
    spaced_seed,
)
from repro.util.config import LinkConfig


def link(bdp=3, mbps=20, rtt=20):
    return LinkConfig.from_mbps_ms(mbps, rtt, bdp)


def test_fluid_backend_mix():
    result = run_mix(
        link(), [("cubic", 2), ("bbr", 2)], duration=30, backend="fluid"
    )
    assert set(result.per_flow) == {"cubic", "bbr"}
    total = sum(result.aggregate.values())
    assert total <= link().capacity * 1.001


def test_packet_backend_mix():
    result = run_mix(
        link(bdp=3, mbps=10),
        [("cubic", 1), ("bbr", 1)],
        duration=15,
        backend="packet",
    )
    assert result.per_flow["cubic"] > 0
    assert result.per_flow["bbr"] > 0


def test_zero_count_classes_skipped():
    result = run_mix(
        link(), [("cubic", 0), ("bbr", 2)], duration=20, backend="fluid"
    )
    assert "cubic" not in result.per_flow
    assert "bbr" in result.per_flow


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        run_mix(link(), [("cubic", 1)], backend="ns3")


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        run_mix(link(), [("cubic", 1)], trials=0)


def test_multi_trial_averaging_differs_from_single():
    kwargs = dict(duration=30, backend="fluid", seed=3)
    one = run_mix(link(), [("cubic", 2), ("bbr", 2)], trials=1, **kwargs)
    three = run_mix(link(), [("cubic", 2), ("bbr", 2)], trials=3, **kwargs)
    assert one.per_flow["bbr"] != three.per_flow["bbr"]


def test_per_flow_mbps_helper():
    result = run_mix(link(), [("cubic", 1)], duration=20, backend="fluid")
    assert result.per_flow_mbps("cubic") == pytest.approx(
        result.per_flow["cubic"] * 8 / 1e6
    )
    assert result.per_flow_mbps("bbr") == 0.0


def test_rtt_override():
    result = run_mix(
        link(),
        [("cubic", 1, 0.010), ("bbr", 1, 0.060), ("bbr", 1)],
        duration=30,
        backend="fluid",
    )
    # A class is a CCA at an explicit RTT, or a plain CCA.
    assert set(result.per_flow) == {"cubic@0.01", "bbr@0.06", "bbr"}
    assert set(result.aggregate) == set(result.loss_rate) == set(
        result.retransmits
    ) == set(result.per_flow)
    assert result.per_flow["cubic@0.01"] > 0
    assert result.per_flow["bbr@0.06"] != result.per_flow["bbr"]


def test_distribution_throughput_fn_shape():
    payoff = distribution_payoff_fn(
        link(), n_flows=4, duration=20, backend="fluid"
    )
    # A round in, one single-group payoff list per state out.
    [[(cubic, bbr)], [(_cubic0, bbr0)], [(cubic4, _bbr4)]] = payoff(
        (2,), (0,), (4,)
    )
    assert cubic > 0 and bbr > 0
    assert bbr0 == 0.0
    assert cubic4 == 0.0
    # States are range-checked by the game that asks, before it asks.
    with pytest.raises(ValueError, match="outside the game"):
        GroupGame([4], payoff).payoffs((5,))


def test_group_payoff_fn_shape():
    payoff = group_payoff_fn(
        link(),
        group_rtts=[0.010, 0.030],
        group_sizes=[2, 2],
        duration=20,
    )
    [result] = payoff((1, 2))
    assert len(result) == 2
    inc0, cha0 = result[0]
    assert inc0 > 0 and cha0 > 0
    inc1, cha1 = result[1]
    assert inc1 == 0.0  # Group 1 is all-challenger.
    with pytest.raises(ValueError, match="outside the game"):
        GroupGame([2, 2], payoff).payoffs((3, 0))


def test_group_payoff_fn_validates_lengths():
    with pytest.raises(ValueError):
        group_payoff_fn(link(), [0.01], [2, 2])


def test_group_payoff_fn_rejects_groups_with_equal_rtt():
    # Groups are told apart by RTT in the result: two at one RTT would
    # be merged into one class, so they are refused, never merged.
    with pytest.raises(ValueError, match="group_rtts must be distinct"):
        group_payoff_fn(link(), [0.01, 0.03, 0.01], [2, 2, 2])


def test_expand_mix_lowercases_and_applies_rtts():
    flows = expand_mix(
        [("CUBIC", 2), ("reno", 0, 0.02), ("BBR", 1, 0.05), ("bbr", 1, None)]
    )
    assert flows == [
        ("cubic", None),
        ("cubic", None),
        ("bbr", 0.05),
        ("bbr", None),
    ]


def test_spaced_seed_no_collisions_for_large_trial_counts():
    # Regression: the old spacing ``seed + 1000 * k`` collided as soon as
    # trial offsets exceeded 1000 (seed + 1000*k + trial == the base seed
    # of distribution index k + 1).  The hashed spacing keeps every
    # (index, trial) stream disjoint even for huge trial counts.
    trials = 2500
    seeds = {
        spaced_seed(0, k) + trial
        for k in range(20)
        for trial in range(trials)
    }
    assert len(seeds) == 20 * trials


def test_spaced_seed_deterministic_and_seed_sensitive():
    assert spaced_seed(7, 3) == spaced_seed(7, 3)
    assert spaced_seed(7, 3) != spaced_seed(8, 3)
    assert spaced_seed(7, 3) != spaced_seed(7, 4)
    assert 0 <= spaced_seed(0, 0) < 2**56
