"""Experiment harness: scenario runner and per-figure regenerators.

``figures.FIGURES`` maps figure ids (fig1 … fig12) to generators; each
returns :class:`~repro.experiments.results.FigureResult` objects with CSV
export and terminal rendering.  ``runner.run_mix`` is the generic
"run this flow mix, give me per-CCA throughput" entry point.

The names below are re-exported lazily, so the execution engine's
import of :mod:`repro.experiments.runner` does not load the figures.
"""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    "repro.experiments.figures": ("FIGURES",),
    "repro.experiments.results": ("FigureResult", "Series"),
    "repro.experiments.runner": (
        "ScenarioResult",
        "distribution_payoff_fn",
        "group_payoff_fn",
        "run_mix",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
