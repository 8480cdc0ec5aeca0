"""Cross-module integration: model vs. simulators (the paper's §3 checks,
at test-sized operating points).

These are the slowest tests in the suite (a few seconds each); they pin
the qualitative agreements that the benchmark harness then measures at
full scale.
"""

import pytest

from repro.core.multi_flow import predict_multi_flow
from repro.core.two_flow import predict_two_flow
from repro.core.ware import ware_prediction
from repro.experiments.runner import run_mix
from repro.fluidsim import FluidSpec, run_fluid
from repro.util.config import LinkConfig


@pytest.mark.parametrize("bdp", [2, 5])
def test_packet_sim_tracks_model_shape(bdp):
    """1 CUBIC vs 1 BBR: the packet simulator lands near the model.

    The model assumes large windows, so the link must have a reasonable
    BDP in packets (here 67); at paper scale (50 Mbps / 40 ms / 120 s)
    agreement tightens to a few percent — see the fig3 benchmark.
    """
    link = LinkConfig.from_mbps_ms(20, 40, bdp)
    pred = predict_two_flow(link)
    result = run_mix(
        link, [("cubic", 1), ("bbr", 1)], duration=90, backend="packet"
    )
    measured = result.per_flow["bbr"] / link.capacity
    assert measured == pytest.approx(pred.bbr_fraction, abs=0.15)


def test_packet_sim_bbr_share_declines_with_buffer():
    """The Figure-3 shape, end to end on the packet simulator."""
    shares = []
    for bdp in (1.5, 4, 12):
        link = LinkConfig.from_mbps_ms(10, 20, bdp)
        result = run_mix(
            link, [("cubic", 1), ("bbr", 1)], duration=60, backend="packet"
        )
        shares.append(result.per_flow["bbr"])
    assert shares[0] > shares[1] > shares[2]


def test_model_beats_ware_against_packet_sim():
    """§3.1: the paper's model is more accurate than Ware et al."""
    errors_model, errors_ware = [], []
    for bdp in (2, 5, 12):
        link = LinkConfig.from_mbps_ms(10, 20, bdp)
        result = run_mix(
            link, [("cubic", 1), ("bbr", 1)], duration=60, backend="packet"
        )
        actual = result.per_flow["bbr"]
        errors_model.append(
            abs(predict_two_flow(link).bbr_bandwidth - actual)
        )
        errors_ware.append(
            abs(ware_prediction(link, duration=60).bbr_bandwidth - actual)
        )
    assert sum(errors_model) < sum(errors_ware)


def test_fluid_sim_multi_flow_lands_near_predicted_region():
    """§3.2 at test scale: 3v3 per-flow BBR throughput vs the region."""
    link = LinkConfig.from_mbps_ms(100, 40, 5)
    pred = predict_multi_flow(link, 3, 3)
    result = run_mix(
        link,
        [("cubic", 3), ("bbr", 3)],
        duration=120,
        backend="fluid",
        trials=3,
        seed=11,
    )
    lo, hi = pred.per_flow_bbr_bounds()
    slack = 0.25 * (hi - lo) + 0.05 * link.capacity / 3
    assert lo - slack <= result.per_flow["bbr"] <= hi + slack


def test_fluid_sim_diminishing_returns():
    """§3.3's headline trend, end to end on the fluid simulator."""
    link = LinkConfig.from_mbps_ms(100, 40, 3)
    values = []
    for n_bbr in (1, 4, 8):
        result = run_mix(
            link,
            [("cubic", 8 - n_bbr if n_bbr < 8 else 0), ("bbr", n_bbr)],
            duration=120,
            backend="fluid",
            seed=5,
        )
        values.append(result.per_flow["bbr"])
    assert values[0] > values[1] > values[2]


def test_empirical_ne_exists_and_is_mixed():
    """§4.4 at test scale: an interior NE exists for a moderate buffer."""
    from repro.core.game import GroupGame, bisect_nash
    from repro.experiments.runner import distribution_payoff_fn

    link = LinkConfig.from_mbps_ms(100, 40, 5)
    n = 8
    payoff = distribution_payoff_fn(
        link, n, duration=120, backend="fluid", seed=23
    )
    equilibria, _ = bisect_nash(GroupGame([n], payoff))
    assert equilibria
    assert any(0 < k < n for k in equilibria)


def test_queuing_delay_flat_until_all_bbr():
    """Figure 8b: queuing delay barely moves with the BBR share (until
    the all-BBR point, where the loss-based buffer-filler disappears)."""
    link = LinkConfig.from_mbps_ms(100, 40, 2)
    delays = []
    for n_bbr in (0, 3, 6, 9, 10):
        result = run_mix(
            link,
            [("cubic", 10 - n_bbr), ("bbr", n_bbr)],
            duration=90,
            backend="fluid",
            seed=2,
        )
        delays.append(result.mean_queuing_delay)
    mixed = delays[:-1]
    spread = max(mixed) - min(mixed)
    assert spread < 0.5 * max(mixed)
    assert delays[-1] < 0.8 * max(mixed)


def test_all_bbr_fair_share_anchor():
    """§4.1 point B: the all-BBR distribution averages to fair share."""
    link = LinkConfig.from_mbps_ms(100, 40, 5)
    n = 6
    result = run_fluid(
        link, [FluidSpec("bbr")] * n, duration=120, warmup=30
    )
    fair = link.capacity / n
    assert result.mean_throughput("bbr") == pytest.approx(fair, rel=0.15)
