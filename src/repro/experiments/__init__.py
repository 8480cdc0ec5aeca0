"""Experiment harness: scenario runner and per-figure regenerators.

``figures.FIGURES`` maps figure ids (fig1 … fig12, and the extensions
ext-aqm and ext-transitions) to generators; each returns
:class:`~repro.experiments.results.FigureResult` objects with CSV export
and terminal rendering.  ``runner.run_mix`` is the generic
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

#: The keys of ``figures.FIGURES``, known without loading a generator
#: (``repro-bbr list``, ``figure``'s argument check).
FIGURE_IDS = tuple(
    f"fig{n}" for n in (1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
) + ("ext-aqm", "ext-transitions")

__all__ = ["FIGURE_IDS"]
__all__ += [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
