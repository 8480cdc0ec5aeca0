"""repro — reproduction of *Are we heading towards a BBR-dominant
Internet?* (Mishra, Tiu & Leong, IMC 2022).

The package provides:

* :mod:`repro.core` — the paper's CUBIC/BBR throughput model, the Ware et
  al. baseline, and the game-theoretic Nash-equilibrium analysis;
* :mod:`repro.cc` — from-scratch congestion-control implementations
  (Reno, CUBIC, BBRv1, BBRv2, Copa, PCC Vivace);
* :mod:`repro.sim` — a packet-level discrete-event dumbbell simulator;
* :mod:`repro.fluidsim` — a fluid-flow simulator for large sweeps;
* :mod:`repro.experiments` — regenerators for every evaluation figure.

Quick start::

    from repro import BottleneckSpec, predict_nash, predict_two_flow

    link = BottleneckSpec.from_mbps_ms(100, 40, buffer_bdp=5)
    print(predict_two_flow(link).bbr_fraction)     # BBR's share vs CUBIC
    print(predict_nash(link, n_flows=50))          # NE distribution
"""

from repro.core import (
    ModelPrediction,
    MultiFlowPrediction,
    NashPrediction,
    ThroughputTable,
    predict_multi_flow,
    predict_nash,
    predict_two_flow,
    ware_prediction,
)
from repro.scenario.spec import BottleneckSpec
from repro.util.config import LinkConfig

__version__ = "1.0.0"

__all__ = [
    "BottleneckSpec",
    "LinkConfig",
    "ModelPrediction",
    "MultiFlowPrediction",
    "NashPrediction",
    "ThroughputTable",
    "predict_multi_flow",
    "predict_nash",
    "predict_two_flow",
    "ware_prediction",
    "__version__",
]
