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

Like every package here but :mod:`repro.scenario`, this one resolves
its names on first use (:mod:`repro.util.lazy`): ``import repro``
loads no model, and ``repro.predict_nash`` loads only what it needs.
"""

from repro.util.lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "repro.core.game": ("ThroughputTable",),
    "repro.core.multi_flow": ("MultiFlowPrediction", "predict_multi_flow"),
    "repro.core.nash": ("NashPrediction", "predict_nash"),
    "repro.core.two_flow": ("ModelPrediction", "predict_two_flow"),
    "repro.core.ware": ("ware_prediction",),
    "repro.scenario.spec": ("BottleneckSpec",),
    "repro.util.config": ("LinkConfig",),
}

__all__ = ["__version__"]
__all__ += [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
