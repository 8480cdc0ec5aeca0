"""Population state for internet-scale CCA adoption dynamics.

The population is *not* a list of flow objects: it is a small set of
heterogeneous *cells* (RTT class x link/bottleneck class), each holding
``n_flows`` flows — potentially millions — represented only by a numpy
share vector over the available strategies (CCAs).  Evolving a state is
therefore O(cells x strategies) per tick regardless of how many flows
each cell stands for; the flow count matters only when continuous
shares are quantized back into integer flow counts for the payoff
oracle (:mod:`repro.population.oracle`).

Quantization uses largest-remainder rounding with a deterministic
tie-break (lowest strategy index first), so a given share vector always
maps to the same integer mix — a prerequisite for the cache-identity
and seeded-trajectory reproducibility guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.fluidsim.mathops import np
from repro.scenario.spec import BottleneckSpec

__all__ = [
    "CellSpec",
    "PopulationState",
    "DEFAULT_STRATEGIES",
    "quantize_counts",
]

#: The paper's adoption game is CUBIC vs BBR; order is (incumbent,
#: challenger) so ``shares[:, 1]`` is always the challenger share.
DEFAULT_STRATEGIES = ("cubic", "bbr")

#: Simplex tolerance for share vectors (rows must sum to 1 within this).
SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class CellSpec:
    """One homogeneous population cell: a bottleneck class x RTT class.

    All ``n_flows`` flows of a cell share the same bottleneck
    (:class:`BottleneckSpec`, which carries the RTT class) and differ only
    in which strategy (CCA) they currently play.
    """

    link: BottleneckSpec
    n_flows: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.n_flows < 1:
            raise ValueError(
                f"n_flows must be >= 1, got {self.n_flows}"
            )

    @property
    def fair_share(self) -> float:
        """Equal-split per-flow bandwidth ``C / N`` in bytes/second."""
        return self.link.capacity / self.n_flows

    def region_key(self) -> str:
        """Stable identity of this cell's model-validity region.

        Keys the error map (:class:`repro.population.oracle.ErrorMap`):
        cells with identical link parameters and flow counts share one
        calibration entry.
        """
        link = self.link
        return (
            f"{link.capacity_mbps:g}mbps"
            f"|{link.rtt_ms:g}ms"
            f"|{link.buffer_bdp:g}bdp"
            f"|n{self.n_flows}"
        )

    def describe(self) -> str:
        name = self.label or self.region_key()
        return f"{name}: {self.n_flows} flows on {self.link.describe()}"


def quantize_counts(shares: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder rounding of a share vector to integer counts.

    Floors ``shares * total`` and hands the leftover flows to the
    entries with the largest fractional parts; ties break toward the
    lowest index (stable argsort), so the mapping is deterministic.
    The result always sums to ``total`` exactly.
    """
    raw = np.asarray(shares, dtype=np.float64) * total
    base = np.floor(raw).astype(np.int64)
    remainder = int(total - base.sum())
    if remainder > 0:
        frac = raw - base
        order = np.argsort(-frac, kind="stable")
        base[order[:remainder]] += 1
    return base


class PopulationState:
    """Share vectors over strategies for every population cell.

    ``shares`` is a ``(n_cells, n_strategies)`` float64 array whose rows
    lie on the probability simplex.  States are immutable in spirit:
    dynamics build a new state per tick via :meth:`with_shares`.
    """

    def __init__(
        self,
        cells: Sequence[CellSpec],
        shares: np.ndarray,
        strategies: Tuple[str, ...] = DEFAULT_STRATEGIES,
    ) -> None:
        if not cells:
            raise ValueError("at least one population cell is required")
        if len(strategies) < 2:
            raise ValueError(
                f"need >= 2 strategies, got {strategies!r}"
            )
        if len(set(strategies)) != len(strategies):
            raise ValueError(f"duplicate strategies in {strategies!r}")
        array = np.array(shares, dtype=np.float64)
        if array.shape != (len(cells), len(strategies)):
            raise ValueError(
                f"shares shape {array.shape} does not match "
                f"({len(cells)}, {len(strategies)})"
            )
        if not np.isfinite(array).all():
            raise ValueError("shares must be finite")
        if (array < -SIMPLEX_TOL).any():
            raise ValueError("shares must be non-negative")
        sums = array.sum(axis=1)
        if np.abs(sums - 1.0).max() > 1e-6:
            raise ValueError(
                f"share rows must sum to 1, got sums {sums.tolist()}"
            )
        # Renormalize exactly so downstream quantization sees clean rows.
        array = np.clip(array, 0.0, None)
        array /= array.sum(axis=1, keepdims=True)
        self.cells = tuple(cells)
        self.strategies = tuple(s.lower() for s in strategies)
        self.shares = array

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_share(
        cls,
        cells: Sequence[CellSpec],
        challenger_share: float,
        strategies: Tuple[str, ...] = DEFAULT_STRATEGIES,
    ) -> "PopulationState":
        """Every cell starts with the same challenger (last-strategy)
        share; the remainder splits evenly over the other strategies."""
        if not 0.0 <= challenger_share <= 1.0:
            raise ValueError(
                "challenger_share must lie in [0, 1], got "
                f"{challenger_share}"
            )
        k = len(strategies)
        row = np.full(k, (1.0 - challenger_share) / (k - 1))
        row[-1] = challenger_share
        shares = np.tile(row, (len(cells), 1))
        return cls(cells, shares, strategies)

    @classmethod
    def uniform(
        cls,
        cells: Sequence[CellSpec],
        strategies: Tuple[str, ...] = DEFAULT_STRATEGIES,
    ) -> "PopulationState":
        shares = np.full(
            (len(cells), len(strategies)), 1.0 / len(strategies)
        )
        return cls(cells, shares, strategies)

    # -- derived views -----------------------------------------------------

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_strategies(self) -> int:
        return len(self.strategies)

    def total_flows(self) -> int:
        return sum(cell.n_flows for cell in self.cells)

    def counts(self) -> np.ndarray:
        """Integer flow counts per (cell, strategy), rows summing to
        each cell's ``n_flows`` (largest-remainder quantization)."""
        rows = [
            quantize_counts(self.shares[i], cell.n_flows)
            for i, cell in enumerate(self.cells)
        ]
        return np.stack(rows)

    def share_of(self, strategy: str) -> float:
        """Flow-weighted population-wide share of ``strategy``."""
        idx = self.strategies.index(strategy.lower())
        weights = np.array(
            [cell.n_flows for cell in self.cells], dtype=np.float64
        )
        return float(
            (self.shares[:, idx] * weights).sum() / weights.sum()
        )

    def with_shares(self, shares: np.ndarray) -> "PopulationState":
        """A new state over the same cells/strategies."""
        return PopulationState(self.cells, shares, self.strategies)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable snapshot (exact floats round-trip)."""
        cells: List[Dict[str, Any]] = []
        for cell in self.cells:
            cells.append(
                {
                    "capacity_mbps": cell.link.capacity_mbps,
                    "rtt_ms": cell.link.rtt_ms,
                    "buffer_bdp": cell.link.buffer_bdp,
                    "n_flows": cell.n_flows,
                    "label": cell.label,
                }
            )
        return {
            "strategies": list(self.strategies),
            "cells": cells,
            "shares": [list(row) for row in self.shares.tolist()],
        }
