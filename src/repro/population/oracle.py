"""Tiered payoff oracle for the adoption dynamics loop.

The dynamics only ever ask one question: *given this cell's current
integer strategy mix, what per-flow throughput does each strategy
earn?*  Answering it with a simulation for every (cell, tick) would
make million-flow horizons infeasible, so the oracle is tiered:

* **Tier 0 — analytical.**  The paper's closed-form multi-flow model
  (:func:`repro.core.multi_flow.predict_multi_flow`) evaluated at the
  quantized mix, with the payoff of an *empty* strategy class taken at
  the single-deviant mix ``(n-1, 1)`` — exactly the deviation payoff
  the Nash condition (Eq. 25) reasons about.  Results are memoized in
  an in-process dict for the tick loop and nowhere else: one
  evaluation costs ~13 µs, a disk-cache lookup ~25 times that.
* **Tier 1 — batched fluid simulation.**  For regions where the
  model is known to be wrong (see below) — or for strategy pairs the
  model does not cover at all — payoffs come from ``backend="fluid"``
  :class:`~repro.exec.fingerprint.ScenarioPoint` evaluations.  All
  escalated cells of a tick are submitted as *one*
  ``Engine.run_points`` batch, so the engine's chunked dispatch pools
  them into vectorized simulation calls.

Which tier a region gets is decided once per region by *calibration*:
the model and one engine-cached fluid simulation are compared at a
balanced mix, and the relative disagreement (normalized by the cell's
fair share ``C/N``) is recorded in an :class:`ErrorMap` artifact.
Regions whose error exceeds ``error_threshold`` escalate to tier 1.
The classic case is the shallow-buffer regime (``buffer <= 1 BDP``)
where the model predicts total CUBIC starvation but the fluid substrate
still grants CUBIC a trickle.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.multi_flow import predict_multi_flow
from repro.exec.fingerprint import ScenarioPoint, link_params
from repro.population.state import PopulationState
from repro.util.jsonfile import write_json_atomic
from repro.util.rounds import PointRounds, drive

__all__ = ["BOUNDS", "ErrorMap", "TieredOracle"]

#: Which side of the model's predicted region tier 0 reports.
BOUNDS = ("sync", "desync", "mid")

#: Default calibration threshold: escalate a region to tier 1 when the
#: model disagrees with the fluid substrate by more than this fraction
#: of the cell's fair share.
DEFAULT_ERROR_THRESHOLD = 0.10


class ErrorMap:
    """Per-region record of analytical-vs-fluid disagreement.

    Keys are :meth:`repro.population.state.CellSpec.region_key` strings;
    entries record the calibration mix, both payoff vectors, the
    relative error, and the tier the region was assigned.  The map is a
    JSON artifact (``error_map.json``) so campaigns can merge the
    regions their units touched into one study-wide picture.
    """

    def __init__(
        self, entries: Optional[Dict[str, Dict[str, Any]]] = None
    ) -> None:
        self.entries: Dict[str, Dict[str, Any]] = dict(entries or {})

    def record(self, key: str, entry: Dict[str, Any]) -> None:
        self.entries[key] = entry

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        return self.entries.get(key)

    def tier_for(self, key: str) -> Optional[int]:
        entry = self.entries.get(key)
        return None if entry is None else int(entry["tier"])

    def escalated(self) -> List[str]:
        """Region keys that were routed to tier 1."""
        return sorted(
            key
            for key, entry in self.entries.items()
            if entry["tier"] == 1
        )

    def max_rel_error(self) -> float:
        errors = [
            entry["rel_error"]
            for entry in self.entries.values()
            if entry.get("rel_error") is not None
        ]
        return max(errors) if errors else 0.0

    def merge(self, other: "ErrorMap") -> None:
        """Absorb another map's entries (theirs win on collision)."""
        self.entries.update(other.entries)

    def to_dict(self) -> Dict[str, Any]:
        return {"regions": dict(self.entries)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ErrorMap":
        return cls(dict(data.get("regions", {})))

    def save(self, path: str) -> None:
        write_json_atomic(path, self.to_dict(), sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "ErrorMap":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


class TieredOracle:
    """Per-flow payoff oracle with analytical/simulated tiers.

    Args:
        engine: Execution engine for simulation points; None resolves
            the process default.
        error_threshold: Calibration escalation threshold (fraction of
            the cell's fair share).
        bound: Which model bound tier 0 reports — ``"sync"``,
            ``"desync"``, or ``"mid"`` (their average).
        duration: Simulated seconds per tier-1/calibration point.
        trials: Trials per simulation point.
        seed: Base seed for simulation points (fixed across ticks so
            identical mixes share one cached result).
        obs: Telemetry bus for the ``population.oracle.*`` counters;
            None resolves the process default at each call.
        error_map: Start from (and keep recording into) an existing
            error map.
        force_tier: Pin every region to tier 0 or 1, skipping
            calibration entirely (None = calibrate).
    """

    def __init__(
        self,
        engine: Any = None,
        error_threshold: float = DEFAULT_ERROR_THRESHOLD,
        bound: str = "sync",
        duration: float = 30.0,
        trials: int = 1,
        seed: int = 0,
        obs: Any = None,
        error_map: Optional[ErrorMap] = None,
        force_tier: Optional[int] = None,
    ) -> None:
        if bound not in BOUNDS:
            raise ValueError(
                f"bound must be one of {BOUNDS}, got {bound!r}"
            )
        if error_threshold <= 0:
            raise ValueError(
                f"error_threshold must be positive, got {error_threshold}"
            )
        if force_tier not in (None, 0, 1):
            raise ValueError(
                f"force_tier must be None, 0, or 1, got {force_tier!r}"
            )
        self.engine = engine
        self.error_threshold = error_threshold
        self.bound = bound
        self.duration = duration
        self.trials = trials
        self.seed = seed
        self.error_map = error_map if error_map is not None else ErrorMap()
        self.force_tier = force_tier
        self._obs = obs
        #: region key -> assigned tier (0 or 1).
        self._tiers: Dict[str, int] = {}
        #: (region, strategies, counts, bound) -> payoff vector.
        self._memo: Dict[Tuple, np.ndarray] = {}
        self.queries = 0
        self.tier0_queries = 0
        self.tier1_queries = 0
        self.memo_hits = 0
        self.calibrations = 0
        self.sim_points = 0

    # -- bookkeeping -------------------------------------------------------

    @property
    def stats(self) -> Dict[str, int]:
        """Cumulative oracle accounting (independent of telemetry)."""
        return {
            "queries": self.queries,
            "tier0": self.tier0_queries,
            "tier1": self.tier1_queries,
            "memo_hits": self.memo_hits,
            "calibrations": self.calibrations,
            "sim_points": self.sim_points,
        }

    def _resolve_obs(self) -> Any:
        from repro.obs.bus import resolve as resolve_obs

        return resolve_obs(self._obs)

    def run_points(self, points: List[ScenarioPoint]) -> List[Any]:
        """One round answered by the oracle's own engine (resolved per
        round, so a default installed later still counts)."""
        from repro.exec.engine import resolve as resolve_engine

        return resolve_engine(self.engine).run_points(points)

    # -- model (tier 0) ----------------------------------------------------

    def _select(self, prediction: Any, cc: str) -> float:
        if self.bound == "sync":
            pair = (
                prediction.per_flow_cubic_sync,
                prediction.per_flow_bbr_sync,
            )
        elif self.bound == "desync":
            pair = (
                prediction.per_flow_cubic_desync,
                prediction.per_flow_bbr_desync,
            )
        else:
            pair = (
                0.5
                * (
                    prediction.per_flow_cubic_sync
                    + prediction.per_flow_cubic_desync
                ),
                0.5
                * (
                    prediction.per_flow_bbr_sync
                    + prediction.per_flow_bbr_desync
                ),
            )
        return pair[0] if cc == "cubic" else pair[1]

    def _model_pair(self, link: Any, n_cubic: int, n_bbr: int) -> Tuple:
        """(cubic payoff, bbr payoff) with empty classes evaluated at
        the single-deviant mix — the Eq. 25 deviation payoff."""
        n = n_cubic + n_bbr
        if n_cubic > 0:
            cubic = self._select(
                predict_multi_flow(link, n_cubic, n_bbr), "cubic"
            )
        else:
            cubic = self._select(
                predict_multi_flow(link, 1, n - 1), "cubic"
            )
        if n_bbr > 0:
            bbr = self._select(
                predict_multi_flow(link, n_cubic, n_bbr), "bbr"
            )
        else:
            bbr = self._select(
                predict_multi_flow(link, n - 1, 1), "bbr"
            )
        return cubic, bbr

    def _model_payoffs(
        self, link: Any, counts: Tuple[int, ...], strategies: Tuple
    ) -> List[float]:
        by_name = dict(zip(strategies, counts))
        cubic, bbr = self._model_pair(
            link, by_name["cubic"], by_name["bbr"]
        )
        pair = {"cubic": cubic, "bbr": bbr}
        return [pair[s] for s in strategies]

    def _tier0(
        self,
        cell: Any,
        counts: Tuple[int, ...],
        strategies: Tuple[str, ...],
        obs: Any,
    ) -> np.ndarray:
        key = (cell.region_key(), strategies, counts, self.bound)
        cached = self._memo.get(key)
        if cached is not None:
            self.memo_hits += 1
            if obs is not None:
                obs.count("population.oracle.memo_hits")
            return cached
        value = np.asarray(
            self._model_payoffs(cell.link, counts, strategies),
            dtype=np.float64,
        )
        self._memo[key] = value
        return value

    # -- simulation (tier 1) -----------------------------------------------

    def _point(
        self,
        cell: Any,
        counts: Tuple[int, ...],
        strategies: Tuple[str, ...],
    ) -> ScenarioPoint:
        return ScenarioPoint(
            link=cell.link,
            mix=tuple(zip(strategies, counts)),
            duration=self.duration,
            backend="fluid",
            trials=self.trials,
            seed=self.seed,
        )

    def _tier1_points(
        self,
        cell: Any,
        row: np.ndarray,
        strategies: Tuple[str, ...],
    ) -> Tuple[List[ScenarioPoint], List[Tuple[int, int]]]:
        """Points needed for one cell, plus (strategy, point) slots.

        The occupied strategies all read from the main-mix point; each
        *empty* strategy gets a deviant point where one flow defects to
        it from the most-populated class.
        """
        counts = tuple(int(c) for c in row)
        points = [self._point(cell, counts, strategies)]
        slots: List[Tuple[int, int]] = []
        for s, count in enumerate(counts):
            if count > 0:
                slots.append((s, 0))
                continue
            deviant = list(counts)
            deviant[int(np.argmax(row))] -= 1
            deviant[s] += 1
            points.append(self._point(cell, tuple(deviant), strategies))
            slots.append((s, len(points) - 1))
        return points, slots

    # -- calibration -------------------------------------------------------

    def _region(self, cell: Any) -> str:
        return cell.region_key()

    def _calibration_rounds(self, state: PopulationState, obs: Any):
        """Assign a tier to every region the state touches; the regions
        still to calibrate are one round."""
        if self.force_tier is not None:
            for cell in state.cells:
                self._tiers.setdefault(
                    self._region(cell), self.force_tier
                )
            return
        modeled = set(state.strategies) == {"cubic", "bbr"}
        plans: Dict[str, Tuple[Any, Tuple[int, ...]]] = {}
        for cell in state.cells:
            key = self._region(cell)
            if key in self._tiers or key in plans:
                continue
            if not modeled:
                # The analytical model only covers CUBIC vs BBR; any
                # other strategy pair always simulates.
                self._tiers[key] = 1
                self.error_map.record(
                    key,
                    {
                        "tier": 1,
                        "forced": True,
                        "rel_error": None,
                        "reason": (
                            "strategies "
                            f"{list(state.strategies)} not covered by "
                            "the analytical model"
                        ),
                    },
                )
                continue
            n_bbr = max(1, cell.n_flows // 2)
            plans[key] = cell, tuple(
                cell.n_flows - n_bbr if s == "cubic" else n_bbr
                for s in state.strategies
            )
        if not plans:
            return
        results = yield [
            self._point(cell, counts, state.strategies)
            for cell, counts in plans.values()
        ]
        self.sim_points += len(plans)
        for (key, (cell, counts)), result in zip(plans.items(), results):
            model = self._model_payoffs(
                cell.link, counts, state.strategies
            )
            simulated = [
                result.per_flow.get(s, 0.0) for s in state.strategies
            ]
            fair = cell.fair_share
            rel_error = max(
                abs(m - sim) / fair
                for m, sim, count in zip(model, simulated, counts)
                if count > 0
            )
            tier = 1 if rel_error > self.error_threshold else 0
            self._tiers[key] = tier
            self.calibrations += 1
            if obs is not None:
                obs.count("population.oracle.calibrations")
            self.error_map.record(
                key,
                {
                    "tier": tier,
                    "rel_error": rel_error,
                    "threshold": self.error_threshold,
                    "bound": self.bound,
                    "link": link_params(cell.link),
                    "n_flows": cell.n_flows,
                    "mix": {
                        s: int(c)
                        for s, c in zip(state.strategies, counts)
                    },
                    "model": dict(zip(state.strategies, model)),
                    "simulated": dict(
                        zip(state.strategies, simulated)
                    ),
                    "fair_share": fair,
                    "duration": self.duration,
                    "trials": self.trials,
                    "seed": self.seed,
                },
            )

    # -- the oracle surface -------------------------------------------------

    def payoffs(self, state: PopulationState) -> np.ndarray:
        """Per-flow payoffs (bytes/s) for every (cell, strategy):
        :meth:`payoff_rounds` answered by the oracle's own engine."""
        return drive(self.payoff_rounds(state), self.run_points)

    def payoff_rounds(
        self, state: PopulationState
    ) -> PointRounds[np.ndarray]:
        """One tick's payoffs, asked for in rounds: tier-0 cells answer
        from the analytical model (memoized) and ask for nothing; the
        regions not calibrated yet are one round, the tier-1 cells'
        scenario points, pooled, one more — each a single batched
        ``Engine.run_points`` submission.
        """
        obs = self._resolve_obs()
        yield from self._calibration_rounds(state, obs)
        counts = state.counts()
        out = np.zeros(
            (state.n_cells, state.n_strategies), dtype=np.float64
        )
        batch: List[ScenarioPoint] = []
        reads: List[Tuple[int, int, int]] = []  # (cell, strategy, point)
        for i, cell in enumerate(state.cells):
            self.queries += 1
            if obs is not None:
                obs.count("population.oracle.queries")
            if self._tiers[self._region(cell)] == 0:
                self.tier0_queries += 1
                if obs is not None:
                    obs.count("population.oracle.tier0")
                out[i] = self._tier0(
                    cell,
                    tuple(int(c) for c in counts[i]),
                    state.strategies,
                    obs,
                )
            else:
                self.tier1_queries += 1
                if obs is not None:
                    obs.count("population.oracle.tier1")
                points, slots = self._tier1_points(
                    cell, counts[i], state.strategies
                )
                reads += [(i, s, len(batch) + at) for s, at in slots]
                batch += points
        if batch:
            results = yield batch
            self.sim_points += len(batch)
            if obs is not None:
                obs.count("population.oracle.sim_points", len(batch))
            for i, s, at in reads:
                out[i, s] = results[at].per_flow.get(state.strategies[s], 0.0)
        return out
