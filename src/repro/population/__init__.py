"""Internet-scale CCA adoption dynamics (``repro.population``).

A population of flows — up to millions, held as numpy share vectors
over heterogeneous (RTT class x bottleneck class) cells — repeatedly
chooses between CCAs under pluggable evolutionary dynamics, with
per-flow payoffs served by a tiered oracle: the paper's closed-form
model where it is trusted, batched fluid simulation where the
recorded model error is high.  See ``docs/POPULATION.md``.
"""

from repro.population.dynamics import (
    DYNAMICS,
    DynamicsConfig,
    step_shares,
)
from repro.population.oracle import BOUNDS, ErrorMap, TieredOracle
from repro.population.run import PopulationResult, run_population
from repro.population.state import (
    DEFAULT_STRATEGIES,
    CellSpec,
    PopulationState,
    quantize_counts,
)

__all__ = [
    "BOUNDS",
    "DEFAULT_STRATEGIES",
    "DYNAMICS",
    "CellSpec",
    "DynamicsConfig",
    "ErrorMap",
    "PopulationResult",
    "PopulationState",
    "TieredOracle",
    "run_population",
    "step_shares",
    "quantize_counts",
]
