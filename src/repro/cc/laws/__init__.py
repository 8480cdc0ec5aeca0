"""Substrate-agnostic congestion-control laws.

One module per algorithm (``laws.reno``, ``laws.cubic``, ``laws.bbr``,
``laws.bbr2``, ``laws.copa``, ``laws.vegas``, ``laws.vivace``) holds
every constant, filter, and state-machine transition of that algorithm
as pure, deterministic kernels.  Two kinds of adapters drive them:

* :mod:`repro.cc` — per-ACK controllers for the packet-level simulator;
* :mod:`repro.fluidsim.flows` — per-tick dynamics for the fluid model.

Both substrates therefore run *the same algorithm at two granularities*
— the structural property the paper's cross-substrate validation (and
the model literature it builds on) depends on.  ``laws.registry`` is the
single canonical table mapping algorithm names to their kernels and
adapter classes; both substrate registries derive from it.

See ``docs/ARCHITECTURE.md`` for the layering.
"""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    "repro.cc.laws.base": (
        "INITIAL_CWND_SEGMENTS",
        "MIN_CWND_SEGMENTS",
        "SRTT_GAIN",
        "CongestionEventGate",
        "Signals",
        "smooth_rtt",
    ),
    "repro.cc.laws.registry": (
        "ALGORITHMS",
        "AlgorithmSpec",
        "canonical_names",
        "fluid_class",
        "get_spec",
        "kernel_parameters",
        "packet_class",
        "state_names",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
