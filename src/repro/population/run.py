"""Seeded adoption-trajectory runner.

One :func:`run_population` call evolves a :class:`PopulationState` for
a fixed number of ticks under a chosen dynamics rule, asking the tiered
oracle for payoffs once per tick, and returns the full trajectory plus
the static NE prediction for every cell so convergence (or cycling) can
be judged against the paper's Eq. 25.

Determinism contract: the only randomness is the single
``numpy.random.default_rng(seed)`` generator owned by this loop and
consumed exclusively by the dynamics step (the sampled logit rule);
the oracle is deterministic given its seed.  Trajectories are therefore
bit-identical across cold/warm caches and across engine ``jobs``
settings — the engine returns results in submission order and the
vectorized fluid substrate is batch-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.population.dynamics import DynamicsConfig, step_shares
from repro.population.oracle import ErrorMap, TieredOracle
from repro.population.state import (
    DEFAULT_STRATEGIES,
    CellSpec,
    PopulationState,
)
from repro.util.rounds import PointRounds, drive

__all__ = ["PopulationResult", "population_rounds", "run_population"]

#: Convergence is declared when every per-tick share delta over the
#: last ``CONVERGENCE_WINDOW`` ticks stays below the tolerance.
CONVERGENCE_WINDOW = 10


@dataclass
class PopulationResult:
    """Everything one adoption run produced.

    ``trajectory[t]`` holds the state *before* tick ``t``'s update and
    the payoffs evaluated at that state; ``final_shares`` is the state
    after the last update.  ``ne[i]`` is the per-cell static prediction
    (None when the strategy pair is outside the model's CUBIC/BBR
    vocabulary).
    """

    cells: Tuple[CellSpec, ...]
    strategies: Tuple[str, ...]
    dynamics: Dict[str, Any]
    seed: int
    ticks: int
    init_share: float
    trajectory: List[Dict[str, Any]]
    final_shares: List[List[float]]
    converged: bool
    max_recent_delta: float
    ne: List[Optional[Dict[str, Any]]]
    oracle: Dict[str, int]
    error_map: ErrorMap = field(default_factory=ErrorMap)

    def final_state(self) -> PopulationState:
        return PopulationState(
            self.cells, np.array(self.final_shares), self.strategies
        )

    def final_share(self, strategy: str) -> float:
        """Flow-weighted final share of ``strategy``."""
        return self.final_state().share_of(strategy)

    def cell_labels(self) -> List[str]:
        return [
            cell.label or f"cell{i}"
            for i, cell in enumerate(self.cells)
        ]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable summary (exact floats round-trip)."""
        return {
            "strategies": list(self.strategies),
            "cells": [
                {
                    "capacity_mbps": cell.link.capacity_mbps,
                    "rtt_ms": cell.link.rtt_ms,
                    "buffer_bdp": cell.link.buffer_bdp,
                    "n_flows": cell.n_flows,
                    "label": cell.label,
                }
                for cell in self.cells
            ],
            "dynamics": dict(self.dynamics),
            "seed": self.seed,
            "ticks": self.ticks,
            "init_share": self.init_share,
            "final_shares": [list(row) for row in self.final_shares],
            "final_share": {
                s: self.final_share(s) for s in self.strategies
            },
            "converged": self.converged,
            "max_recent_delta": self.max_recent_delta,
            "ne": self.ne,
            "oracle": dict(self.oracle),
            "error_map": self.error_map.to_dict(),
        }


def _cell_ne(
    cell: CellSpec, strategies: Tuple[str, ...]
) -> Optional[Dict[str, Any]]:
    if set(strategies) != {"cubic", "bbr"}:
        return None
    from repro.core.nash import predict_nash

    prediction = predict_nash(cell.link, cell.n_flows)
    n = cell.n_flows
    return {
        "n_bbr_sync": prediction.n_bbr_sync,
        "n_bbr_desync": prediction.n_bbr_desync,
        "share_sync": prediction.n_bbr_sync / n,
        "share_desync": prediction.n_bbr_desync / n,
        "in_validity_range": prediction.in_validity_range,
    }


def run_population(
    cells: Sequence[CellSpec],
    dynamics: Optional[DynamicsConfig] = None,
    ticks: int = 80,
    seed: int = 0,
    strategies: Tuple[str, ...] = DEFAULT_STRATEGIES,
    init_share: float = 0.1,
    oracle: Optional[TieredOracle] = None,
    engine: Any = None,
    obs: Any = None,
    check: Any = None,
    tracer: Any = None,
    progress: Optional[Callable[[int, int], None]] = None,
    convergence_tol: float = 0.005,
) -> PopulationResult:
    """Evolve a population of CCA-choosing flows for ``ticks`` steps:
    :func:`population_rounds` answered by the oracle's own engine,
    under one ``population`` span.

    Args:
        cells: The heterogeneous population cells.
        dynamics: Update rule configuration (default: replicator).
        ticks: Number of update steps.
        seed: Trajectory seed (consumed only by the dynamics step).
        strategies: Strategy (CCA) vocabulary, challenger last.
        init_share: Initial challenger share in every cell.
        oracle: Payoff oracle; built from ``engine`` when omitted.
        engine: Execution engine for a default-built oracle.
        obs: Telemetry bus (None resolves the process default).
        check: Invariant checker (None resolves the process default).
        tracer: Span tracer (None resolves the process default).
        progress: Optional ``(ticks done, ticks total)`` callback.
        convergence_tol: Max per-tick share delta, over the trailing
            :data:`CONVERGENCE_WINDOW` ticks, to declare convergence.
    """
    from repro.obs.trace import resolve as resolve_tracer
    from repro.obs.trace import span

    if oracle is None:
        oracle = TieredOracle(engine=engine, obs=obs)
    config = dynamics if dynamics is not None else DynamicsConfig()
    with span(
        resolve_tracer(tracer),
        "population",
        "population",
        ticks=ticks,
        cells=len(cells),
        dynamics=config.name,
    ):
        return drive(
            population_rounds(
                cells,
                oracle,
                config,
                ticks,
                seed=seed,
                strategies=strategies,
                init_share=init_share,
                obs=obs,
                check=check,
                progress=progress,
                convergence_tol=convergence_tol,
            ),
            oracle.run_points,
        )


def population_rounds(
    cells: Sequence[CellSpec],
    oracle: TieredOracle,
    config: DynamicsConfig,
    ticks: int,
    seed: int = 0,
    strategies: Tuple[str, ...] = DEFAULT_STRATEGIES,
    init_share: float = 0.1,
    obs: Any = None,
    check: Any = None,
    progress: Optional[Callable[[int, int], None]] = None,
    convergence_tol: float = 0.005,
) -> PointRounds[PopulationResult]:
    """The trajectory of :func:`run_population` (its arguments), each
    tick's engine work asked for in rounds
    (:meth:`TieredOracle.payoff_rounds`).  A trajectory that stays on
    tier 0 yields nothing and finishes on its first advance.
    """
    if ticks < 1:
        raise ValueError(f"ticks must be >= 1, got {ticks}")
    from repro.check import resolve as resolve_check
    from repro.obs.bus import resolve as resolve_obs

    obs = resolve_obs(obs)
    check = resolve_check(check)

    state = PopulationState.from_share(cells, init_share, strategies)
    rng = np.random.default_rng(seed)
    scales = np.array(
        [cell.fair_share for cell in state.cells], dtype=np.float64
    )
    trajectory: List[Dict[str, Any]] = []
    deltas: List[float] = []
    for tick in range(ticks):
        payoffs = yield from oracle.payoff_rounds(state)
        if obs is not None:
            obs.count("population.ticks")
        if check is not None:
            check.population_state(tick, state.shares)
            stats = oracle.stats
            check.population_oracle(
                tick,
                queries=stats["queries"],
                tier0=stats["tier0"],
                tier1=stats["tier1"],
            )
        nxt = step_shares(config, state.shares, payoffs, scales, rng)
        trajectory.append(
            {
                "tick": tick,
                "shares": [list(row) for row in state.shares.tolist()],
                "payoffs": [list(row) for row in payoffs.tolist()],
            }
        )
        deltas.append(float(np.abs(nxt - state.shares).max()))
        state = state.with_shares(nxt)
        if progress is not None:
            progress(tick + 1, ticks)
    if check is not None:
        check.population_state(ticks, state.shares)
    window = deltas[-CONVERGENCE_WINDOW:]
    converged = (
        len(deltas) >= CONVERGENCE_WINDOW
        and max(window) < convergence_tol
    )
    return PopulationResult(
        cells=state.cells,
        strategies=state.strategies,
        dynamics=config.to_dict(),
        seed=seed,
        ticks=ticks,
        init_share=init_share,
        trajectory=trajectory,
        final_shares=[list(row) for row in state.shares.tolist()],
        converged=converged,
        max_recent_delta=max(window) if window else 0.0,
        ne=[_cell_ne(cell, state.strategies) for cell in state.cells],
        oracle=oracle.stats,
        error_map=oracle.error_map,
    )
