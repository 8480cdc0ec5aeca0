"""Internet-scale CCA adoption dynamics (``repro.population``).

A population of flows — up to millions, held as numpy share vectors
over heterogeneous (RTT class x bottleneck class) cells — repeatedly
chooses between CCAs under pluggable evolutionary dynamics, with
per-flow payoffs served by a tiered oracle: the paper's closed-form
model where it is trusted, batched fluid simulation where the
recorded model error is high.  See ``docs/POPULATION.md``.
"""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    "repro.population.dynamics": (
        "DYNAMICS",
        "DynamicsConfig",
        "step_shares",
    ),
    "repro.population.oracle": ("BOUNDS", "ErrorMap", "TieredOracle"),
    "repro.population.run": ("PopulationResult", "run_population"),
    "repro.population.state": (
        "DEFAULT_STRATEGIES",
        "CellSpec",
        "PopulationState",
        "quantize_counts",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
