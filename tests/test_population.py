"""repro.population: state, dynamics, tiered oracle, runs, campaigns."""

import filecmp
import json

import numpy as np
import pytest

from repro.campaign import (
    SpecError,
    expand_units,
    parse_spec,
    run_campaign,
)
from repro.check import Checker, InvariantViolation
from repro.cli import build_parser, main
from repro.core.multi_flow import predict_multi_flow
from repro.core.nash import predict_nash
from repro.exec import Engine, ResultCache
from repro.population import (
    CellSpec,
    DynamicsConfig,
    ErrorMap,
    PopulationState,
    TieredOracle,
    quantize_counts,
    run_population,
    step_shares,
)
from repro.util.config import LinkConfig

PAPER_LINK = LinkConfig.from_mbps_ms(100, 40, 5)
SHALLOW_LINK = LinkConfig.from_mbps_ms(100, 40, 0.5)
TINY_LINK = LinkConfig.from_mbps_ms(20, 20, 1)


def _cell(link=PAPER_LINK, n=10, label="c"):
    return CellSpec(link=link, n_flows=n, label=label)


# -- state & quantization ----------------------------------------------------


def test_quantize_counts_sums_and_tie_break():
    # Ties hand the leftover flow to the lowest index (stable argsort).
    assert quantize_counts(np.array([0.5, 0.5]), 5).tolist() == [3, 2]
    thirds = np.array([1 / 3, 1 / 3, 1 / 3])
    assert quantize_counts(thirds, 10).tolist() == [4, 3, 3]
    rng = np.random.default_rng(0)
    for total in (1, 7, 100, 10**6):
        shares = rng.dirichlet(np.ones(4))
        counts = quantize_counts(shares, total)
        assert counts.sum() == total
        assert (counts >= 0).all()
        # Deterministic: same vector always maps to the same counts.
        assert (quantize_counts(shares, total) == counts).all()


def test_state_counts_and_weighted_share():
    cells = [_cell(n=10, label="a"), _cell(n=30, label="b")]
    state = PopulationState(
        cells, np.array([[1.0, 0.0], [0.0, 1.0]])
    )
    assert state.counts().tolist() == [[10, 0], [0, 30]]
    assert state.share_of("bbr") == pytest.approx(0.75)
    assert state.share_of("cubic") == pytest.approx(0.25)


def test_state_from_share_endpoints():
    state = PopulationState.from_share([_cell(n=8)], 0.0)
    assert state.shares.tolist() == [[1.0, 0.0]]
    state = PopulationState.from_share([_cell(n=8)], 1.0)
    assert state.shares.tolist() == [[0.0, 1.0]]
    with pytest.raises(ValueError, match="challenger_share"):
        PopulationState.from_share([_cell()], 1.5)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda: PopulationState([], np.zeros((0, 2))), "at least one"),
        (
            lambda: PopulationState([_cell()], np.array([[1.0]])),
            "shape",
        ),
        (
            lambda: PopulationState(
                [_cell()], np.array([[0.7, 0.7]])
            ),
            "sum to 1",
        ),
        (
            lambda: PopulationState(
                [_cell()], np.array([[1.2, -0.2]])
            ),
            "non-negative",
        ),
        (
            lambda: PopulationState(
                [_cell()], np.array([[np.nan, 1.0]])
            ),
            "finite",
        ),
        (
            lambda: PopulationState(
                [_cell()],
                np.array([[0.5, 0.5]]),
                strategies=("bbr", "bbr"),
            ),
            "duplicate",
        ),
        (lambda: CellSpec(link=PAPER_LINK, n_flows=0), "n_flows"),
    ],
)
def test_state_rejects_with_actionable_message(mutate, message):
    with pytest.raises(ValueError, match=message):
        mutate()


# -- dynamics ----------------------------------------------------------------


def test_replicator_moves_toward_higher_payoff():
    shares = np.array([[0.5, 0.5]])
    payoffs = np.array([[1.0, 3.0]])
    nxt = step_shares(
        DynamicsConfig(name="replicator", step=0.5),
        shares,
        payoffs,
        np.array([1.0]),
    )
    # mean = 2: growth 0.75 / 1.25 -> exactly (0.375, 0.625).
    assert nxt[0].tolist() == pytest.approx([0.375, 0.625])


def test_replicator_zero_mean_payoff_leaves_shares_unchanged():
    shares = np.array([[0.3, 0.7]])
    nxt = step_shares(
        DynamicsConfig(name="replicator"),
        shares,
        np.zeros((1, 2)),
        np.array([1.0]),
    )
    assert nxt[0].tolist() == pytest.approx(shares[0].tolist())


def test_best_response_inertia_and_tie_break():
    config = DynamicsConfig(name="best-response", inertia=0.5)
    nxt = step_shares(
        config,
        np.array([[0.8, 0.2]]),
        np.array([[0.0, 1.0]]),
        np.array([1.0]),
    )
    assert nxt[0].tolist() == pytest.approx([0.4, 0.6])
    # Payoff ties break toward the lowest strategy index.
    tied = step_shares(
        config,
        np.array([[0.0, 1.0]]),
        np.array([[1.0, 1.0]]),
        np.array([1.0]),
    )
    assert tied[0].tolist() == pytest.approx([0.5, 0.5])


def test_logit_softmax_and_seeded_sampling():
    config = DynamicsConfig(name="logit", epsilon=0.5)
    # Equal payoffs: the reconsidering half splits evenly.
    nxt = step_shares(
        config,
        np.array([[1.0, 0.0]]),
        np.zeros((1, 2)),
        np.array([1.0]),
    )
    assert nxt[0].tolist() == pytest.approx([0.75, 0.25])
    # Sampled rule is reproducible per seed.
    payoffs = np.array([[1.0, 1.1]])
    runs = [
        step_shares(
            config,
            np.array([[0.5, 0.5]]),
            payoffs,
            np.array([1.0]),
            np.random.default_rng(7),
        )
        for _ in range(2)
    ]
    assert runs[0].tolist() == runs[1].tolist()


def test_mutation_keeps_strategies_alive():
    nxt = step_shares(
        DynamicsConfig(name="best-response", inertia=0.0, mutation=0.1),
        np.array([[1.0, 0.0]]),
        np.array([[1.0, 0.0]]),
        np.array([1.0]),
    )
    assert nxt[0].tolist() == pytest.approx([0.95, 0.05])


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"name": "mystery"}, "dynamics must be one of"),
        ({"step": 0.0}, "step"),
        ({"inertia": 1.0}, "inertia"),
        ({"epsilon": 0.0}, "epsilon"),
        ({"temperature": 0.0}, "temperature"),
        ({"mutation": 1.0}, "mutation"),
    ],
)
def test_dynamics_config_rejects(kwargs, message):
    with pytest.raises(ValueError, match=message):
        DynamicsConfig(**kwargs)


# -- tiered oracle -----------------------------------------------------------


def test_tier0_matches_closed_form_model():
    oracle = TieredOracle(engine=Engine(), force_tier=0)
    state = PopulationState.from_share([_cell(n=10)], 0.5)
    payoffs = oracle.payoffs(state)
    prediction = predict_multi_flow(PAPER_LINK, 5, 5)
    assert payoffs[0, 0] == pytest.approx(
        prediction.per_flow_cubic_sync
    )
    assert payoffs[0, 1] == pytest.approx(prediction.per_flow_bbr_sync)


def test_tier0_empty_class_uses_single_deviant_payoff():
    # With zero BBR flows the BBR payoff is the Eq. 25 deviation
    # payoff: what one defector from the (n, 0) mix would earn.
    oracle = TieredOracle(engine=Engine(), force_tier=0)
    state = PopulationState.from_share([_cell(n=10)], 0.0)
    payoffs = oracle.payoffs(state)
    deviant = predict_multi_flow(PAPER_LINK, 9, 1)
    assert payoffs[0, 1] == pytest.approx(deviant.per_flow_bbr_sync)


def test_tier0_is_computed_not_routed_through_the_engine(tmp_path):
    """Tier 0 is a ~13 us closed form: it never becomes an engine point
    (no fingerprint, no cache file, no "simulated point" in the exec
    summary), and computing it directly changes no bit of the run."""
    import hashlib

    engine = Engine(cache=ResultCache(tmp_path / "cache"))
    result = run_population(
        [_cell(n=100, label="paper")],
        dynamics=DynamicsConfig(name="replicator", step=0.5),
        ticks=20,
        seed=0,
        init_share=0.1,
        oracle=TieredOracle(engine=engine, force_tier=0),
    )
    assert engine.stats["submitted"] == 0
    assert not list((tmp_path / "cache").rglob("*.json"))
    trace = json.dumps(
        [result.trajectory, result.final_shares], sort_keys=True
    )
    # Pinned at the commit that still round-tripped tier 0 through the
    # engine's result cache (7 submissions for this run).
    assert hashlib.sha256(trace.encode()).hexdigest() == (
        "a7d01315a6dd227911fa0ea3521233fe123e2575ea646f32c9c2e9471391b54b"
    )


def test_tier0_memoizes_repeat_mixes():
    oracle = TieredOracle(engine=Engine(), force_tier=0)
    state = PopulationState.from_share([_cell(n=10)], 0.5)
    first = oracle.payoffs(state)
    second = oracle.payoffs(state)
    assert (first == second).all()
    stats = oracle.stats
    assert stats["queries"] == 2
    assert stats["tier0"] == 2
    assert stats["tier1"] == 0
    assert stats["memo_hits"] == 1


def test_unmodeled_strategy_pair_forces_tier1():
    # The analytical model only covers CUBIC vs BBR; any other pair
    # must simulate, recorded as a forced escalation.
    oracle = TieredOracle(engine=Engine(), duration=2.0)
    cell = _cell(link=TINY_LINK, n=4)
    state = PopulationState.from_share(
        [cell], 0.5, strategies=("cubic", "bbr2")
    )
    payoffs = oracle.payoffs(state)
    assert np.isfinite(payoffs).all() and (payoffs > 0).all()
    entry = oracle.error_map.get(cell.region_key())
    assert entry["tier"] == 1 and entry["forced"]
    assert entry["rel_error"] is None
    assert oracle.stats["tier1"] == 1
    assert oracle.stats["tier0"] == 0


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"bound": "upper"}, "bound"),
        ({"error_threshold": 0.0}, "error_threshold"),
        ({"force_tier": 2}, "force_tier"),
    ],
)
def test_oracle_rejects(kwargs, message):
    with pytest.raises(ValueError, match=message):
        TieredOracle(**kwargs)


def test_error_map_round_trip_and_merge(tmp_path):
    emap = ErrorMap()
    emap.record(
        "a", {"tier": 1, "rel_error": 0.4, "threshold": 0.1}
    )
    emap.record(
        "b", {"tier": 0, "rel_error": 0.02, "threshold": 0.1}
    )
    emap.record("c", {"tier": 1, "rel_error": None, "forced": True})
    assert emap.get("a")["tier"] == 1
    assert emap.get("missing") is None
    assert emap.escalated() == ["a", "c"]
    assert emap.max_rel_error() == pytest.approx(0.4)

    path = tmp_path / "error_map.json"
    emap.save(str(path))
    loaded = ErrorMap.load(str(path))
    assert loaded.to_dict() == emap.to_dict()

    other = ErrorMap()
    other.record("a", {"tier": 0, "rel_error": 0.01})
    loaded.merge(other)  # Theirs win on collision.
    assert loaded.get("a")["tier"] == 0
    assert loaded.get("b")["tier"] == 0


# -- run-level acceptance ----------------------------------------------------


def test_replicator_converges_to_nash_within_two_points():
    # The headline acceptance: on a paper-scale cell the replicator
    # fixed point lands within 2pp of the Eq. 25 NE share.
    cell = _cell(n=100, label="paper")
    result = run_population(
        [cell],
        dynamics=DynamicsConfig(name="replicator", step=0.5),
        ticks=60,
        seed=0,
        init_share=0.1,
        oracle=TieredOracle(engine=Engine(), force_tier=0),
    )
    ne = predict_nash(PAPER_LINK, 100)
    predicted = ne.n_bbr_sync / 100
    assert abs(result.final_share("bbr") - predicted) <= 0.02
    assert result.ne[0]["share_sync"] == pytest.approx(predicted)
    stats = result.oracle
    assert stats["queries"] == 60
    assert stats["tier0"] == 60 and stats["tier1"] == 0


def test_trajectory_bit_identical_cold_warm_and_jobs(tmp_path):
    # force_tier=1 so every tick goes through the engine: the
    # trajectory must not depend on cache state or jobs fan-out.
    cell = _cell(link=TINY_LINK, n=8, label="t")

    def _run(engine):
        return run_population(
            [cell],
            dynamics=DynamicsConfig(name="logit", epsilon=0.5),
            ticks=3,
            seed=11,
            oracle=TieredOracle(
                engine=engine, force_tier=1, duration=3.0
            ),
        )

    cache = tmp_path / "cache"
    cold = _run(Engine(jobs=1, cache=ResultCache(cache)))
    warm_engine = Engine(jobs=1, cache=ResultCache(cache))
    warm = _run(warm_engine)
    fanned = _run(Engine(jobs=4, cache=ResultCache(cache)))

    reference = json.dumps(cold.to_dict(), sort_keys=True)
    assert json.dumps(warm.to_dict(), sort_keys=True) == reference
    assert json.dumps(fanned.to_dict(), sort_keys=True) == reference
    assert warm_engine.hits > 0  # The warm run really reused results.


def test_tier1_payoffs_are_seed_means_in_one_round():
    """``trials`` seeds per tier-1 point: one ``run_points`` call of
    every seed point, each payoff the mean over its point's seeds."""
    from repro.experiments.runner import run_trials
    from tests.conftest import CountingEngine

    engine = CountingEngine()
    oracle = TieredOracle(
        engine=engine, force_tier=1, duration=3.0, trials=3, seed=4
    )
    state = PopulationState.from_share([_cell(link=TINY_LINK, n=4)], 0.5)
    payoffs = oracle.payoffs(state)
    [batch] = engine.batches
    assert [p.seed for p in batch] == [4, 5, 6]
    [mean] = run_trials([batch[0]], 3)
    assert payoffs[0].tolist() == [
        mean.per_flow[s] for s in state.strategies
    ]


def test_shallow_buffer_region_escalates_to_tier1():
    # Calibration at 40 flows x 6 s: the model predicts total CUBIC
    # starvation at 0.5 BDP but the fluid substrate still grants CUBIC
    # a trickle, so the recorded error crosses the 10% threshold.
    cell = CellSpec(link=SHALLOW_LINK, n_flows=40, label="shallow")
    oracle = TieredOracle(
        engine=Engine(), error_threshold=0.1, duration=6.0
    )
    result = run_population(
        [cell],
        dynamics=DynamicsConfig(name="replicator"),
        ticks=1,
        seed=0,
        oracle=oracle,
    )
    key = cell.region_key()
    assert key == "100mbps|40ms|0.5bdp|n40"
    assert result.error_map.escalated() == [key]
    entry = result.error_map.get(key)
    assert entry["tier"] == 1
    assert entry["rel_error"] > 0.1
    stats = result.oracle
    assert stats["tier1"] == 1 and stats["tier0"] == 0
    assert stats["calibrations"] == 1
    assert stats["sim_points"] >= 2  # Calibration + the tick's batch.


def test_run_population_rejects_bad_ticks():
    with pytest.raises(ValueError, match="ticks"):
        run_population([_cell()], ticks=0)


# -- invariant checks --------------------------------------------------------


def test_checker_accepts_valid_population_state():
    check = Checker()
    check.population_state(0, np.array([[0.5, 0.5], [1.0, 0.0]]))
    assert check.checks_run == 2


@pytest.mark.parametrize(
    "shares, message",
    [
        ([[np.nan, 1.0]], "finite"),
        ([[1.2, -0.2]], "negative"),
        ([[0.7, 0.7]], "not 1"),
    ],
)
def test_checker_rejects_invalid_population_state(shares, message):
    with pytest.raises(InvariantViolation, match=message):
        Checker().population_state(3, np.array(shares))


def test_checker_rejects_oracle_tier_mismatch():
    check = Checker()
    check.population_oracle(0, queries=4, tier0=3, tier1=1)
    with pytest.raises(InvariantViolation, match="exactly one tier"):
        check.population_oracle(1, queries=4, tier0=3, tier1=2)


def test_checked_run_passes_end_to_end():
    result = run_population(
        [_cell(n=10)],
        dynamics=DynamicsConfig(name="replicator"),
        ticks=12,
        seed=0,
        oracle=TieredOracle(engine=Engine(), force_tier=0),
        check=Checker(),
    )
    assert result.ticks == 12


# -- campaign stage ----------------------------------------------------------

POP_SPEC = {
    "name": "pop",
    "link": {
        "bandwidth_mbps": 100.0,
        "rtt_ms": 40.0,
        "buffer_bdp": 0.5,
    },
    "defaults": {"duration": 6.0, "backend": "fluid-vec", "seed": 0},
    "axes": [
        {
            "name": "dynamics",
            "values": ["replicator", "best-response", "logit"],
        }
    ],
    "stages": [
        {
            "name": "adopt",
            "type": "population",
            "flows": 20,
            "ticks": 3,
            "init_share": 0.1,
            "error_threshold": 0.1,
        }
    ],
}


def _pop_spec(**overrides):
    data = json.loads(json.dumps(POP_SPEC))  # Deep copy.
    data.update(overrides)
    return parse_spec(data)


def test_population_spec_parses_and_expands():
    spec = _pop_spec(
        axes=[
            {"name": "dynamics", "values": ["replicator", "logit"]},
            {"name": "epsilon", "values": [0.1, 0.3]},
        ]
    )
    stage = spec.stages[0]
    assert stage.kind == "population"
    assert stage.flows == 20 and stage.ticks == 3
    units = expand_units(spec)
    assert len(units) == 4
    assert {u.dynamics for u in units} == {"replicator", "logit"}
    assert {u.epsilon for u in units} == {0.1, 0.3}
    for unit in units:
        params = unit.params()
        assert params["dynamics"] == unit.dynamics
        assert params["epsilon"] == unit.epsilon


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda d: d["axes"].append(
                {"name": "mix", "values": ["cubic:1,bbr:1"]}
            ),
            "derive the mix split",
        ),
        (
            lambda d: d["stages"][0].update(dynamics="mystery"),
            "dynamics must be one of",
        ),
        (
            lambda d: d["stages"][0].update(flows=1),
            "flows >= 2",
        ),
        (
            lambda d: d["stages"][0].update(epsilon=0.0),
            "epsilon",
        ),
        (
            lambda d: d["stages"][0].update(error_threshold=-1),
            "error_threshold",
        ),
    ],
)
def test_population_spec_rejects(mutate, message):
    data = json.loads(json.dumps(POP_SPEC))
    mutate(data)
    with pytest.raises(SpecError, match=message):
        parse_spec(data)


def test_population_axis_requires_population_stage():
    data = json.loads(json.dumps(POP_SPEC))
    data["defaults"]["mix"] = "cubic:1,bbr:1"
    data["stages"] = [{"name": "s", "type": "sweep"}]
    data["axes"] = [
        {"name": "buffer_bdp", "values": [1, 2]},
        {"name": "epsilon", "values": [0.1, 0.2]},
    ]
    with pytest.raises(SpecError, match="only applies to population"):
        parse_spec(data)


def test_population_campaign_resume_byte_identical(tmp_path):
    spec = _pop_spec()

    ref_engine = Engine(cache=ResultCache(tmp_path / "cache-a"))
    run_campaign(spec, tmp_path / "ref", engine=ref_engine)

    cache_b = tmp_path / "cache-b"
    first = Engine(cache=ResultCache(cache_b))
    summary = run_campaign(
        spec, tmp_path / "out", engine=first, stop_after=2
    )
    assert summary.interrupted
    assert summary.executed == 2
    assert summary.csv_path is None
    # The units that did finish already merged their calibration
    # regions into the artifact.
    assert (tmp_path / "out" / "error_map.json").exists()

    second = Engine(cache=ResultCache(cache_b))
    resumed = run_campaign(
        spec, tmp_path / "out", engine=second, resume=True
    )
    assert not resumed.interrupted
    assert resumed.from_journal == 2
    assert resumed.executed == 1

    for name in ("results.csv", "error_map.json"):
        assert filecmp.cmp(
            tmp_path / "ref" / name,
            tmp_path / "out" / name,
            shallow=False,
        ), name

    header, *rows = (
        (tmp_path / "ref" / "results.csv")
        .read_text()
        .strip()
        .splitlines()
    )
    assert "final_challenger_share" in header
    assert "oracle_tier0" in header and "max_rel_error" in header
    assert len(rows) == 3


# -- CLI ---------------------------------------------------------------------


def test_cli_population_run_and_plot(tmp_path, capsys):
    out = tmp_path / "adopt"
    code = main(
        [
            "population",
            "run",
            "--flows",
            "30",
            "--ticks",
            "12",
            "--tier",
            "0",
            "--no-cache",
            "--jobs",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "overall bbr share" in printed
    assert "oracle:" in printed
    assert "escalated regions: (none)" in printed
    for name in ("summary.json", "trajectory.csv", "error_map.json"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["oracle"]["tier1"] == 0

    assert main(["population", "plot", str(out)]) == 0
    plotted = capsys.readouterr().out
    assert "bbr share" in plotted
    assert "final bbr share" in plotted


def test_cli_population_plot_missing_dir(tmp_path, capsys):
    code = main(["population", "plot", str(tmp_path / "nope")])
    assert code == 2
    assert "cannot load" in capsys.readouterr().err


def test_cli_population_rtt_classes_parse():
    parser = build_parser()
    args = parser.parse_args(
        ["population", "run", "--rtt-classes", "10,40,120"]
    )
    assert args.rtt_classes == [10.0, 40.0, 120.0]
    with pytest.raises(SystemExit):
        parser.parse_args(
            ["population", "run", "--rtt-classes", "fast,slow"]
        )
