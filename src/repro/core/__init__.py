"""The paper's primary contribution: models and game-theoretic analysis.

* :mod:`repro.core.two_flow` — the basic CUBIC-vs-BBR throughput model
  (§2.3, Equations 5–20).
* :mod:`repro.core.multi_flow` — the multi-flow extension with
  synchronized/de-synchronized bounds (§2.4, Equations 21–24).
* :mod:`repro.core.ware` — the Ware et al. baseline model (§2.2,
  Equations 2–4).
* :mod:`repro.core.nash` — model-predicted Nash Equilibria (§4.1, Eq. 25).
* :mod:`repro.core.game` — the CCA-selection game: NE predicate,
  best-response dynamics and NE bisection over one group (§4.1, §4.4)
  or one group per RTT class (§4.5).
"""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    "repro.core.game": (
        "GroupGame",
        "ThroughputTable",
        "bisect_nash",
        "ne_existence_conditions",
    ),
    "repro.core.multi_flow": (
        "MultiFlowPrediction",
        "aggregate_bbr_bandwidth",
        "desync_backoff",
        "predict_multi_flow",
    ),
    "repro.core.nash": (
        "NashPrediction",
        "NashRegionPoint",
        "nash_region",
        "predict_nash",
    ),
    "repro.core.two_flow": (
        "CUBIC_BACKOFF",
        "DEEP_BUFFER_LIMIT_BDP",
        "ModelPrediction",
        "predict_two_flow",
        "solve_bbr_buffer_share",
    ),
    "repro.core.ware": ("WarePrediction", "ware_prediction"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
