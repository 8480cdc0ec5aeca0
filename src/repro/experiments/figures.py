"""Regeneration of every figure in the paper's evaluation.

Each ``figureN*`` function reruns the corresponding experiment and returns
one :class:`~repro.experiments.results.FigureResult` (or a list, for
multi-panel figures).  Two fidelity presets are provided:

* ``scale="quick"`` — reduced durations/point counts/flow counts sized for
  CI and ``pytest-benchmark`` runs (seconds to a few minutes per figure);
* ``scale="full"``  — the paper's parameters (2-minute flows, 10 trials,
  dense sweeps; expect hours for Figures 9–11).

Quick mode preserves every qualitative property the paper reports (who
wins, crossover locations in BDP, region containment); absolute numbers
shift slightly with the shorter averaging windows.  Figure 2 is a network
schematic and Table 1 a notation table — nothing to regenerate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.game import GroupGame
from repro.core.multi_flow import predict_multi_flow
from repro.core.nash import nash_region, predict_nash
from repro.core.ware import ware_prediction
from repro.exec import Engine, ScenarioPoint
from repro.exec import resolve as resolve_engine
from repro.experiments.results import FigureResult
from repro.experiments.runner import group_payoff_fn
from repro.experiments.validation import validate_two_flow
from repro.obs.trace import resolve as resolve_tracer
from repro.obs.trace import span
from repro.util.config import LinkConfig

SCALES = ("quick", "full")


def _check_scale(scale: str) -> bool:
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    return scale == "full"


def _mbps(x: float) -> float:
    return x * 8.0 / 1e6


# -- Figures 1, 3, 12: the 1-CUBIC-vs-1-BBR buffer sweep ----------------------


def _two_flow_figure(
    figure_id: str,
    title: str,
    ylabel: str,
    capacity_mbps: float,
    rtt_ms: float,
    buffers: Sequence[float],
    duration: float,
    engine: Optional[Engine],
    series: Sequence[str] = ("ware", "model", "actual"),
) -> FigureResult:
    """BBR's bandwidth per buffer depth: ``series`` names columns of
    the §3.1 validation sweep, which is this experiment."""
    report = validate_two_flow(
        LinkConfig.from_mbps_ms(capacity_mbps, rtt_ms, 1),
        buffers,
        duration=duration,
        backend="packet",
        engine=engine,
    )
    fig = FigureResult(
        figure_id=figure_id, title=title, xlabel="buffer (BDP)", ylabel=ylabel
    )
    for name in series:
        fig.add(name, buffers, [_mbps(getattr(r, name)) for r in report.rows])
    return fig


def figure1(
    scale: str = "quick", engine: Optional[Engine] = None
) -> FigureResult:
    """Figure 1: Ware et al. prediction vs. BBR's actual share.

    1 CUBIC vs. 1 BBR at 50 Mbps / 40 ms; buffer swept up to 50 BDP.
    """
    full = _check_scale(scale)
    return _two_flow_figure(
        "fig1",
        "BBR bandwidth share, 50 Mbps / 40 ms (Ware et al. vs actual)",
        "bandwidth (Mbps)",
        50,
        40,
        [x * 0.5 for x in range(2, 101)]
        if full
        else [1, 2, 3, 5, 10, 20, 35, 50],
        # BBR needs tens of seconds to become cwnd-limited after its
        # startup transient, so even quick mode keeps near-paper-length
        # flows here.
        120.0 if full else 100.0,
        engine,
        ("ware", "actual"),
    )


def figure3(
    capacity_mbps: float = 50,
    rtt_ms: float = 40,
    scale: str = "quick",
    engine: Optional[Engine] = None,
) -> FigureResult:
    """One panel of Figure 3: model vs. Ware vs. actual across buffers."""
    full = _check_scale(scale)
    return _two_flow_figure(
        f"fig3-{capacity_mbps:g}mbps-{rtt_ms:g}ms",
        f"2-flow validation, {capacity_mbps:g} Mbps / {rtt_ms:g} ms",
        "BBR bandwidth (Mbps)",
        capacity_mbps,
        rtt_ms,
        [x * 0.5 for x in range(2, 61)] if full else [1, 2, 3, 5, 10, 18, 30],
        120.0 if full else 100.0,  # See figure1's duration note.
        engine,
    )


def figure3_all(
    scale: str = "quick", engine: Optional[Engine] = None
) -> List[FigureResult]:
    """All four panels of Figure 3 ({50,100} Mbps × {40,80} ms)."""
    return [
        figure3(capacity, rtt, scale, engine=engine)
        for capacity in (50, 100)
        for rtt in (40, 80)
    ]


# -- Figure 4: multi-flow validation ------------------------------------------


def figure4(
    n_per_class: int = 5,
    scale: str = "quick",
    seed: int = 0,
    engine: Optional[Engine] = None,
) -> FigureResult:
    """One panel of Figure 4: N CUBIC vs N BBR, 100 Mbps / 40 ms.

    Plots the model's predicted region (sync/desync bounds), Ware's
    per-flow prediction, and the fluid-simulated per-flow BBR throughput.
    """
    full = _check_scale(scale)
    buffers = (
        list(range(1, 31))
        if full
        else [1, 2, 3, 5, 10, 15, 20, 30]
    )
    duration = 120.0 if full else 90.0
    trials = 10 if full else 3
    fig = FigureResult(
        figure_id=f"fig4-{n_per_class}v{n_per_class}",
        title=(
            f"{n_per_class} CUBIC vs {n_per_class} BBR, 100 Mbps / 40 ms"
        ),
        xlabel="buffer (BDP)",
        ylabel="per-flow bandwidth (Mbps)",
    )
    links = [LinkConfig.from_mbps_ms(100, 40, depth) for depth in buffers]
    results = resolve_engine(engine).run_points(
        [
            ScenarioPoint(
                link=link,
                mix=(("cubic", n_per_class), ("bbr", n_per_class)),
                duration=duration,
                backend="fluid",
                trials=trials,
                seed=seed,
            )
            for link in links
        ]
    )
    sync, desync, ware = [], [], []
    for link in links:
        pred = predict_multi_flow(link, n_per_class, n_per_class)
        sync.append(_mbps(pred.per_flow_bbr_sync))
        desync.append(_mbps(pred.per_flow_bbr_desync))
        ware.append(
            _mbps(
                ware_prediction(
                    link, n_bbr=n_per_class, duration=duration
                ).bbr_bandwidth
            )
            / n_per_class
        )
    fig.add("sync-bound", buffers, sync)
    fig.add("desync-bound", buffers, desync)
    fig.add("ware", buffers, ware)
    fig.add("actual", buffers, [r.per_flow_mbps("bbr") for r in results])
    return fig


# -- Figure 5: diminishing returns --------------------------------------------


def figure5(
    n_flows: int = 10,
    buffer_bdp: float = 3,
    scale: str = "quick",
    seed: int = 0,
    engine: Optional[Engine] = None,
) -> FigureResult:
    """One panel of Figure 5: BBR per-flow bandwidth vs. #BBR flows."""
    full = _check_scale(scale)
    duration = 120.0 if full else 90.0
    trials = 10 if full else 2
    step = 1 if (full or n_flows <= 10) else 2
    counts = list(range(1, n_flows + 1, step))
    if counts[-1] != n_flows:
        counts.append(n_flows)
    link = LinkConfig.from_mbps_ms(100, 40, buffer_bdp)
    fig = FigureResult(
        figure_id=f"fig5-{n_flows}flows-{buffer_bdp:g}bdp",
        title=(
            f"Diminishing returns: {n_flows} flows, "
            f"{buffer_bdp:g} BDP buffer"
        ),
        xlabel="# BBR flows",
        ylabel="per-flow bandwidth (Mbps)",
    )
    fair = _mbps(link.capacity) / n_flows
    results = resolve_engine(engine).run_points(
        [
            ScenarioPoint(
                link=link,
                mix=(("cubic", n_flows - n_bbr), ("bbr", n_bbr)),
                duration=duration,
                backend="fluid",
                trials=trials,
                seed=seed,
            )
            for n_bbr in counts
        ]
    )
    sync, desync = [], []
    for n_bbr in counts:
        pred = predict_multi_flow(link, n_flows - n_bbr, n_bbr)
        sync.append(_mbps(pred.per_flow_bbr_sync))
        desync.append(_mbps(pred.per_flow_bbr_desync))
    fig.add("sync-bound", counts, sync)
    fig.add("desync-bound", counts, desync)
    fig.add("actual", counts, [r.per_flow_mbps("bbr") for r in results])
    fig.add("fair-share", counts, [fair] * len(counts))
    return fig


# -- Figure 6: NE geometry ----------------------------------------------------


def figure6(
    n_flows: int = 10, buffer_bdp: float = 3, scale: str = "quick"
) -> FigureResult:
    """Figure 6 (quantified): per-flow BBR bandwidth line vs. fair share.

    The paper's Figure 6 is a schematic; here it is generated from the
    model so the A→B line and the crossing point C are concrete.
    """
    _check_scale(scale)
    link = LinkConfig.from_mbps_ms(100, 40, buffer_bdp)
    counts = list(range(1, n_flows + 1))
    fair = _mbps(link.capacity) / n_flows
    fig = FigureResult(
        figure_id="fig6",
        title="Nash Equilibrium geometry (model-generated)",
        xlabel="# BBR flows",
        ylabel="per-flow BBR bandwidth (Mbps)",
    )
    sync, desync = [], []
    for n_bbr in counts:
        pred = predict_multi_flow(link, n_flows - n_bbr, n_bbr)
        sync.append(_mbps(pred.per_flow_bbr_sync))
        desync.append(_mbps(pred.per_flow_bbr_desync))
    fig.add("bbr-per-flow-sync", counts, sync)
    fig.add("bbr-per-flow-desync", counts, desync)
    fig.add("fair-share", counts, [fair] * len(counts))
    ne = predict_nash(link, n_flows)
    fig.notes = (
        f"Model NE (point C): N_b in "
        f"[{min(ne.n_bbr_sync, ne.n_bbr_desync):.2f}, "
        f"{max(ne.n_bbr_sync, ne.n_bbr_desync):.2f}] of {n_flows}"
    )
    return fig


# -- Figure 7: other congestion control algorithms ----------------------------


def figure7(
    scale: str = "quick",
    seed: int = 0,
    algorithms: Sequence[str] = ("bbr", "bbr2", "copa", "vivace"),
    engine: Optional[Engine] = None,
) -> FigureResult:
    """Figure 7: per-flow throughput of X vs. #X flows, X ∈ {BBR, BBRv2,
    Copa, PCC Vivace}, 10 flows at 100 Mbps with a 2 BDP buffer."""
    full = _check_scale(scale)
    n_flows = 10
    duration = 120.0 if full else 60.0
    trials = 3 if full else 1
    link = LinkConfig.from_mbps_ms(100, 40, 2)
    fair = _mbps(link.capacity) / n_flows
    fig = FigureResult(
        figure_id="fig7",
        title="Per-flow bandwidth vs #non-CUBIC flows (2 BDP buffer)",
        xlabel="# non-CUBIC flows",
        ylabel="per-flow bandwidth (Mbps)",
    )
    counts = list(range(1, n_flows + 1))
    # One flat point grid over (algorithm × count); the engine fans the
    # whole grid out at once instead of one algorithm at a time.
    grid = [(algo, k) for algo in algorithms for k in counts]
    results = resolve_engine(engine).run_points(
        [
            ScenarioPoint(
                link=link,
                mix=(("cubic", n_flows - k), (algo, k)),
                duration=duration,
                backend="fluid",
                trials=trials,
                seed=seed,
            )
            for algo, k in grid
        ]
    )
    by_algo: Dict[str, List[float]] = {algo: [] for algo in algorithms}
    for (algo, _k), result in zip(grid, results):
        by_algo[algo].append(result.per_flow_mbps(algo))
    for algo in algorithms:
        fig.add(algo, counts, by_algo[algo])
    fig.add("fair-share", counts, [fair] * len(counts))
    return fig


# -- Figure 8: throughput and delay along the distribution sweep --------------


def figure8(
    scale: str = "quick", seed: int = 0, engine: Optional[Engine] = None
) -> Tuple[FigureResult, FigureResult]:
    """Figure 8: (a) CUBIC/BBR per-flow throughput and (b) shared queuing
    delay, as the number of BBR flows grows (10 flows, 2 BDP, 40 ms)."""
    full = _check_scale(scale)
    n_flows = 10
    duration = 120.0 if full else 60.0
    trials = 3 if full else 1
    link = LinkConfig.from_mbps_ms(100, 40, 2)
    counts = list(range(0, n_flows + 1))
    results = resolve_engine(engine).run_points(
        [
            ScenarioPoint(
                link=link,
                mix=(("cubic", n_flows - k), ("bbr", k)),
                duration=duration,
                backend="fluid",
                trials=trials,
                seed=seed,
            )
            for k in counts
        ]
    )
    cubic, bbr, delay = [], [], []
    for k, result in zip(counts, results):
        cubic.append(result.per_flow_mbps("cubic") if k < n_flows else 0.0)
        bbr.append(result.per_flow_mbps("bbr") if k > 0 else 0.0)
        delay.append(result.mean_queuing_delay * 1e3)
    fig_a = FigureResult(
        figure_id="fig8a",
        title="Average per-flow throughput vs #BBR flows",
        xlabel="# non-CUBIC flows",
        ylabel="per-flow bandwidth (Mbps)",
    )
    fig_a.add("cubic", counts, cubic)
    fig_a.add("bbr", counts, bbr)
    fig_b = FigureResult(
        figure_id="fig8b",
        title="Average queuing delay vs #BBR flows",
        xlabel="# non-CUBIC flows",
        ylabel="queuing delay (ms)",
    )
    fig_b.add("queuing-delay", counts, delay)
    return fig_a, fig_b


# -- Figures 9 and 11: NE validation ------------------------------------------


def _observed_ne(spec, engine: Optional[Engine]) -> List[Dict[str, object]]:
    """Run an NE-study campaign (:mod:`repro.campaign.studies`): one
    row per equilibrium found, in unit order whatever the completion
    order — the rows ``repro-bbr campaign run`` would write for the
    same spec, from the same cache fingerprints."""
    # Deferred: repro.campaign imports repro.experiments for the scale
    # presets, so the reverse edge must stay inside the function.
    from repro.campaign.expand import expand_units
    from repro.campaign.run import iter_units

    found = {
        outcome.index: outcome.rows
        for outcome in iter_units(spec, expand_units(spec), engine=engine)
    }
    return [row for index in sorted(found) for row in found[index]]


def figure9(
    capacity_mbps: float = 100,
    rtt_ms: float = 40,
    scale: str = "quick",
    seed: int = 0,
    challenger: str = "bbr",
    engine: Optional[Engine] = None,
) -> FigureResult:
    """One panel of Figure 9: predicted Nash Region vs. empirical NE.

    Quick mode uses 20 flows and bisection NE search (the paper uses 50
    flows and exhaustive enumeration over 10 trials).

    The empirical sweep is *defined as* a campaign
    (:func:`repro.campaign.studies.fig9_campaign`, also checked in at
    ``examples/campaigns/fig9-ne-quick.toml``).
    """
    from repro.campaign.studies import fig9_campaign

    spec = fig9_campaign(
        capacity_mbps=capacity_mbps,
        rtt_ms=rtt_ms,
        scale=scale,
        seed=seed,
        challenger=challenger,
    )
    n_flows = spec.stages[0].flows
    buffers = list(spec.axis("buffer_bdp").values)
    fig = FigureResult(
        figure_id=(
            f"fig9-{capacity_mbps:g}mbps-{rtt_ms:g}ms"
            + ("" if challenger == "bbr" else f"-{challenger}")
        ),
        title=(
            f"NE: predicted region vs observed, {n_flows} flows, "
            f"{capacity_mbps:g} Mbps / {rtt_ms:g} ms ({challenger})"
        ),
        xlabel="buffer (BDP)",
        ylabel="# CUBIC flows at NE",
    )
    base = LinkConfig.from_mbps_ms(capacity_mbps, rtt_ms, 1)
    region = nash_region(base, n_flows, buffers)
    fig.add("sync-bound", buffers, [p.n_cubic_sync for p in region])
    fig.add("desync-bound", buffers, [p.n_cubic_desync for p in region])
    rows = _observed_ne(spec, engine)
    fig.add(
        "observed-ne",
        [row["buffer_bdp"] for row in rows],
        [row["ne_incumbent"] for row in rows],
    )
    return fig


def figure9_all(
    scale: str = "quick", seed: int = 0, engine: Optional[Engine] = None
) -> List[FigureResult]:
    """All six panels of Figure 9 ({50,100} Mbps × {20,40,80} ms)."""
    return [
        figure9(capacity, rtt, scale, seed, engine=engine)
        for capacity in (50, 100)
        for rtt in (20, 40, 80)
    ]


# -- Figure 10: multi-RTT NE --------------------------------------------------


def figure10(
    scale: str = "quick", seed: int = 0, engine: Optional[Engine] = None
) -> FigureResult:
    """Figure 10: NE for three RTT groups (10/30/50 ms) sharing 100 Mbps.

    Reports the total CUBIC count at the NE per buffer depth and how it
    splits across the RTT groups (§4.5: the shortest-RTT flows choose
    CUBIC first).
    """
    full = _check_scale(scale)
    group_size = 10 if full else 3
    duration = 120.0 if full else 90.0
    buffers = (
        [2, 5, 10, 15, 20, 30, 40, 50] if full else [2, 10, 35]
    )
    rtts = [0.010, 0.030, 0.050]
    sizes = [group_size] * 3
    # Buffer normalized to the BDP of the shortest-RTT flow, as in §4.5.
    base = LinkConfig.from_mbps_ms(100, 10, 1)

    fig = FigureResult(
        figure_id="fig10",
        title=(
            f"Multi-RTT NE: 3×{group_size} flows at 10/30/50 ms, 100 Mbps"
        ),
        xlabel="buffer (BDP of shortest RTT)",
        ylabel="# CUBIC flows at NE",
    )
    totals, by_group = [], {rtt: [] for rtt in rtts}
    for depth in buffers:
        link = base.with_buffer_bdp(depth)
        payoff = group_payoff_fn(
            link, rtts, sizes, duration=duration, seed=seed, engine=engine
        )
        # Best-response descent from diverse starts, then NE verification.
        state = GroupGame(sizes, payoff).settle(
            [(0, group_size // 2, group_size), tuple(sizes)]
        )[0]
        n_cubic_by_group = [
            size - k for size, k in zip(sizes, state)
        ]
        totals.append(sum(n_cubic_by_group))
        for rtt, n_cubic in zip(rtts, n_cubic_by_group):
            by_group[rtt].append(n_cubic)
    fig.add("n-cubic-total", buffers, totals)
    for rtt in rtts:
        fig.add(f"n-cubic-{rtt * 1e3:g}ms", buffers, by_group[rtt])
    return fig


# -- Figure 11: BBRv2 NE ------------------------------------------------------


def figure11(
    capacity_mbps: float = 50,
    scale: str = "quick",
    seed: int = 0,
    engine: Optional[Engine] = None,
) -> FigureResult:
    """One panel of Figure 11: CUBIC-vs-BBRv2 NE against the BBR-predicted
    region (the paper finds more CUBIC flows at the NE than with BBR)."""
    from repro.campaign.studies import fig11_campaign

    spec = fig11_campaign(capacity_mbps, scale=scale, seed=seed)
    n_flows = spec.stages[0].flows
    buffers = list(spec.axis("buffer_bdp").values)
    fig = FigureResult(
        figure_id=f"fig11-{capacity_mbps:g}mbps",
        title=(
            f"BBRv2 NE vs BBR-predicted region, {n_flows} flows, "
            f"{capacity_mbps:g} Mbps"
        ),
        xlabel="buffer (BDP)",
        ylabel="# CUBIC flows at NE",
    )
    base = LinkConfig.from_mbps_ms(capacity_mbps, 40, 1)
    region = nash_region(base, n_flows, buffers)
    fig.add("bbr-sync-bound", buffers, [p.n_cubic_sync for p in region])
    fig.add(
        "bbr-desync-bound", buffers, [p.n_cubic_desync for p in region]
    )
    rows = _observed_ne(spec, engine)
    for rtt_ms in spec.axis("rtt_ms").values:
        series = [row for row in rows if row["rtt_ms"] == rtt_ms]
        fig.add(
            f"observed-{rtt_ms}ms",
            [row["buffer_bdp"] for row in series],
            [row["ne_incumbent"] for row in series],
        )
    return fig


# -- Figure 12: ultra-deep buffers --------------------------------------------


def figure12(
    scale: str = "quick", engine: Optional[Engine] = None
) -> FigureResult:
    """Figure 12: model over-estimation in ultra-deep buffers.

    1 CUBIC vs 1 BBR swept to 250 BDP.  Quick mode shrinks the link
    (20 Mbps / 20 ms) so the packet simulator covers the deep-buffer
    regime in seconds; the regime boundary (≈100 BDP) is in BDP units and
    scale-free, like the paper's other BDP-normalized results.
    """
    if _check_scale(scale):
        capacity_mbps, rtt_ms = 50.0, 40.0
        buffers = [1, 5, 10, 25, 50, 75, 100, 125, 150, 200, 250]
    else:
        capacity_mbps, rtt_ms = 20.0, 20.0
        buffers = [1, 5, 20, 60, 100, 150, 250]
    return _two_flow_figure(
        "fig12",
        f"Ultra-deep buffers, {capacity_mbps:g} Mbps / {rtt_ms:g} ms "
        "(model overestimates past ~100 BDP)",
        "BBR bandwidth (Mbps)",
        capacity_mbps,
        rtt_ms,
        buffers,
        120.0,
        engine,
    )


#: Registry used by the CLI: figure id → zero-argument quick generator.
def _traced_figure(fig_id: str, fn):
    """Bracket one figure runner in a ``figure`` span when tracing is on.

    The registry below is the CLI's only entry to the runners, so this
    one wrapper gives every figure its top-level span without touching
    the sweep bodies (their engine-level spans nest inside).
    """

    def wrapper(scale: str = "quick"):
        tracer = resolve_tracer(None)
        with span(tracer, "figure", "figure", figure=fig_id, scale=scale):
            return fn(scale=scale)

    return wrapper


_FIGURES_RAW: Dict[str, object] = {
    "fig1": figure1,
    "fig3": figure3_all,
    "fig4": lambda scale="quick": [
        figure4(5, scale),
        figure4(10, scale),
    ],
    "fig5": lambda scale="quick": [
        figure5(10, 3, scale),
        figure5(20, 3, scale),
        figure5(10, 10, scale),
        figure5(20, 10, scale),
    ],
    "fig6": figure6,
    "fig7": figure7,
    "fig8": lambda scale="quick": list(figure8(scale)),
    "fig9": figure9_all,
    "fig10": figure10,
    "fig11": lambda scale="quick": [
        figure11(50, scale),
        figure11(100, scale),
    ],
    "fig12": figure12,
}

FIGURES: Dict[str, object] = {
    key: _traced_figure(key, fn) for key, fn in _FIGURES_RAW.items()
}
