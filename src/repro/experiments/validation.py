"""Model-accuracy validation reports (the quantitative core of §3.1).

``validate_two_flow`` sweeps buffer depths, measures the 1-CUBIC-vs-1-BBR
split on a simulator backend, and scores the paper's model against the
Ware et al. baseline with the metrics of :mod:`repro.analysis.metrics` —
producing the "our model is within X%, Ware is off by Y%" summary the
paper states in prose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.metrics import (
    fraction_within,
    mean_absolute_error,
    mean_relative_error,
)
from repro.core.two_flow import predict_two_flow
from repro.core.ware import ware_prediction
from repro.exec import Engine, ScenarioPoint
from repro.exec import resolve as resolve_engine
from repro.util.config import LinkConfig


@dataclass(frozen=True)
class ValidationRow:
    """One buffer depth of a validation sweep (bandwidths in bytes/s)."""

    buffer_bdp: float
    actual: float
    model: float
    ware: float


@dataclass
class ValidationReport:
    """A scored model-vs-baseline-vs-measurement sweep."""

    link: LinkConfig
    backend: str
    duration: float
    rows: List[ValidationRow]

    def _series(self, name: str) -> List[float]:
        return [getattr(row, name) for row in self.rows]

    @property
    def model_mae(self) -> float:
        """Mean absolute error of the paper's model, bytes/second."""
        return mean_absolute_error(
            self._series("model"), self._series("actual")
        )

    @property
    def ware_mae(self) -> float:
        """Mean absolute error of Ware et al., bytes/second."""
        return mean_absolute_error(
            self._series("ware"), self._series("actual")
        )

    @property
    def model_mre(self) -> float:
        """Mean relative error of the paper's model."""
        return mean_relative_error(
            self._series("model"), self._series("actual")
        )

    @property
    def ware_mre(self) -> float:
        """Mean relative error of Ware et al."""
        return mean_relative_error(
            self._series("ware"), self._series("actual")
        )

    def model_within(self, tolerance: float) -> float:
        """Fraction of points where the model is within ``tolerance``."""
        return fraction_within(
            self._series("model"), self._series("actual"), tolerance
        )

    @property
    def model_wins(self) -> bool:
        """Whether the paper's model beats Ware et al. on MAE."""
        return self.model_mae < self.ware_mae

    def render(self) -> str:
        """Human-readable table plus the headline summary."""
        lines = [
            f"2-flow validation on the {self.backend} backend: "
            f"{self.link.capacity_mbps:g} Mbps / {self.link.rtt_ms:g} ms, "
            f"{self.duration:g} s flows",
            f"{'BDP':>6} {'actual':>10} {'model':>10} {'ware':>10}  (Mbps)",
        ]
        for row in self.rows:
            lines.append(
                f"{row.buffer_bdp:6.1f} "
                f"{row.actual * 8 / 1e6:10.2f} "
                f"{row.model * 8 / 1e6:10.2f} "
                f"{row.ware * 8 / 1e6:10.2f}"
            )
        lines.append(
            f"model: MAE {self.model_mae * 8 / 1e6:.2f} Mbps "
            f"({self.model_mre:.1%} rel)   "
            f"ware: MAE {self.ware_mae * 8 / 1e6:.2f} Mbps "
            f"({self.ware_mre:.1%} rel)   "
            f"→ {'model wins' if self.model_wins else 'ware wins'}"
        )
        return "\n".join(lines)


def validate_two_flow(
    link: LinkConfig,
    buffer_bdps: Sequence[float],
    duration: float = 120.0,
    backend: str = "packet",
    trials: int = 1,
    seed: int = 0,
    engine: Optional[Engine] = None,
) -> ValidationReport:
    """Run the §3.1 validation sweep and score both models.

    The buffer sweep is one batch on ``engine`` (None: the process
    default), so ``--jobs`` and the result cache apply to it.
    """
    if not buffer_bdps:
        raise ValueError("at least one buffer depth is required")
    links = [link.with_buffer_bdp(depth) for depth in buffer_bdps]
    results = resolve_engine(engine).run_points(
        [
            ScenarioPoint(
                link=cfg,
                mix=(("cubic", 1), ("bbr", 1)),
                duration=duration,
                backend=backend,
                trials=trials,
                seed=seed,
            )
            for cfg in links
        ]
    )
    rows = [
        ValidationRow(
            buffer_bdp=depth,
            actual=result.per_flow.get("bbr", 0.0),
            model=predict_two_flow(cfg).bbr_bandwidth,
            ware=ware_prediction(cfg, duration=duration).bbr_bandwidth,
        )
        for depth, cfg, result in zip(buffer_bdps, links, results)
    ]
    return ValidationReport(
        link=link, backend=backend, duration=duration, rows=rows
    )
