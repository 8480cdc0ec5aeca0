"""Scenario runner: backend dispatch, seed points, throughput
functions."""

import json
import math
import statistics
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.game import GroupGame
from repro.exec import ResultCache, ScenarioPoint
from repro.experiments.runner import (
    _mean,
    _one_run,
    distribution_payoff_fn,
    expand_mix,
    group_payoff_fn,
    mean_result,
    run_mix,
    run_mix_batch,
    run_trials,
    seed_points,
    spaced_seed,
)
from repro.scenario.result import FlowResult, SimulationResult
from repro.util.config import LinkConfig
from tests.conftest import CountingEngine


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


def _bits(result):
    """A result's exact bits: equal floats that differ in sign or NaN
    payload differ here."""
    return json.dumps(result.to_dict(), sort_keys=True)


def test_raising_trials_runs_only_the_new_seeds(tmp_path):
    point = ScenarioPoint(
        link=link(), mix=(("cubic", 2), ("bbr", 2)), duration=5.0, seed=3
    )
    engine = CountingEngine(cache=ResultCache(tmp_path))
    run_trials([point], 3, engine)
    assert engine.stats["simulated"] == 3
    [warm] = run_trials([point], 10, engine)
    assert engine.stats["simulated"] == 3 + 7
    assert engine.stats["cache_hits"] == 3
    # Each request is one batch of its seed points, seed … seed + 9.
    assert [p.seed for p in engine.batches[1]] == list(range(3, 13))
    [cold] = run_trials([point], 10, CountingEngine())
    assert _bits(warm) == _bits(cold)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP item 16(a): run_dumbbell takes no seed, so at 5 Mbps / "
        "20 ms / 3 BDP, 4 s, seeds 0, 1 and 2 all give per_flow "
        "{'cubic': 123750.0, 'bbr': 513900.0}"
    ),
)
def test_packet_seed_points_differ():
    point = ScenarioPoint(
        link=LinkConfig.from_mbps_ms(5, 20, 3),
        mix=(("cubic", 1), ("bbr", 1)),
        duration=4.0,
        backend="packet",
    )
    results = run_mix_batch(seed_points([point], 3))
    assert len({_bits(result) for result in results}) == 3


def _trial(rows, queuing_delay, drop_rate):
    """A SimulationResult of ``(cc, throughput, loss_rate, retransmits)``
    flow rows."""
    return SimulationResult(
        flows=[
            FlowResult(i, cc, thr, None, None, loss, 0, retx)
            for i, (cc, thr, loss, retx) in enumerate(rows)
        ],
        duration=10.0,
        warmup=1.0,
        mean_queue_bytes=0.0,
        mean_queuing_delay=queuing_delay,
        drop_rate=drop_rate,
    )


def _reference_aggregate(mix, trials):
    """The mean over ``trials`` of each run's per-class values, as it
    reads with ``statistics.mean`` on every sample list, one value or
    many."""
    mean = statistics.mean
    labels = [cc for cc, _ in mix]
    counts = dict(mix)
    per_flow, aggregate, loss, retx = {}, {}, {}, {}
    for label in labels:
        first = sum(counts[c] for c in labels[: labels.index(label)])
        cols = range(first, first + counts[label])
        flows = [[t.flows[i] for i in cols] for t in trials]
        totals = [sum(f.throughput for f in fs) for fs in flows]
        per_flow[label] = mean([x / counts[label] for x in totals])
        aggregate[label] = mean(totals)
        loss[label] = mean([mean([f.loss_rate for f in fs]) for fs in flows])
        retx[label] = mean(
            [mean([f.retransmits for f in fs]) for fs in flows]
        )
    return dict(
        per_flow=per_flow,
        aggregate=aggregate,
        mean_queuing_delay=mean([t.mean_queuing_delay for t in trials]),
        loss_rate=loss,
        retransmits=retx,
        drop_rate=mean([t.drop_rate for t in trials]),
    )


def _same(a, b):
    """Equal value and type; NaN equals NaN, and 0.0 is not -0.0."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return repr(a) == repr(b)


@pytest.mark.parametrize(
    "mix, trials",
    [
        # One trial, one flow per class: every mean is of one value,
        # which is returned as it is (an int stays int, NaN and inf
        # pass through, -0.0 becomes 0.0 as in ``statistics.mean``).
        (
            [("cubic", 1), ("bbr", 1)],
            [_trial([("cubic", 0.1, -0.0, 3), ("bbr", 1e7 / 3, 0.25, 0)],
                    1e-3, float("nan"))],
        ),
        (
            [("cubic", 1), ("bbr", 1)],
            [_trial([("cubic", float("inf"), float("nan"), 0),
                     ("bbr", 0.0, 1 / 3, 7)], -0.0, float("inf"))],
        ),
        # Three trials of 2 + 1 flows: pooled means keep
        # ``statistics.mean``'s exact rounding.
        (
            [("cubic", 2), ("bbr", 1)],
            [
                _trial(
                    [("cubic", 0.1 * t, 0.01, t), ("cubic", 0.2, 0.03, 1),
                     ("bbr", 1 / (t + 3), 0.0, 2 * t)],
                    0.001 * (t + 1),
                    1 / (t + 7),
                )
                for t in range(3)
            ],
        ),
    ],
)
def test_aggregate_trials_means_equal_statistics_mean(mix, trials):
    result = mean_result([_one_run(mix, trial) for trial in trials])
    expected = _reference_aggregate(mix, trials)
    for name, value in expected.items():
        assert _same(getattr(result, name), value), name


#: Values ``_mean`` sees, and the edges of ``statistics.mean``'s
#: exact arithmetic: ints of any size, subnormal to huge floats,
#: ``-0.0``, ±inf and NaN, in any mix.
MEAN_VALUES = st.one_of(
    st.integers(),
    st.integers(-5, 5),
    st.floats(),
    st.floats(allow_subnormal=True, min_value=-1e-300, max_value=1e-300),
    st.sampled_from([0.0, -0.0, 1.0, 0.1, 1e308, -1e308]),
)


def _bits(value):
    """A value's type and its exact bits (a NaN's sign and payload
    too)."""
    if isinstance(value, float):
        return float, struct.pack("<d", value)
    return type(value), value


@given(values=st.lists(MEAN_VALUES, min_size=1, max_size=8))
def test_mean_is_statistics_mean_bit_for_bit(values):
    assert _bits(_mean(values)) == _bits(statistics.mean(values))


def test_mean_of_special_values():
    assert _same(_mean([1, 3]), 2)
    assert _same(_mean([1, 2]), 1.5)
    assert _same(_mean([1.0, 3]), 2.0)
    assert _same(_mean([-0.0, -0.0]), 0.0)
    assert _same(_mean([float("inf"), 1.0]), float("inf"))
    assert _same(_mean([float("inf"), float("-inf")]), float("nan"))
    assert _same(_mean([1e308, 1e308]), 1e308)


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
