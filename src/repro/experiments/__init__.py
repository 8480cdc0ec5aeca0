"""Experiment harness: scenario runner and per-figure regenerators.

``figures.FIGURES`` maps figure ids (fig1 … fig12) to generators; each
returns :class:`~repro.experiments.results.FigureResult` objects with CSV
export and terminal rendering.  ``runner.run_mix`` is the generic
"run this flow mix, give me per-CCA throughput" entry point.
"""

from repro.experiments.figures import FIGURES
from repro.experiments.results import FigureResult, Series
from repro.experiments.runner import (
    ScenarioResult,
    distribution_payoff_fn,
    group_payoff_fn,
    run_mix,
)

__all__ = [
    "FIGURES",
    "FigureResult",
    "Series",
    "ScenarioResult",
    "distribution_payoff_fn",
    "group_payoff_fn",
    "run_mix",
]
