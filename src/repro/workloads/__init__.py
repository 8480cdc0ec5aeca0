"""Workload generators: long-lived, Poisson short-flow, and on/off
populations for probing beyond the paper's long-flow regime (§5)."""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    "repro.workloads.generator": (
        "WorkloadFlow",
        "expected_offered_load",
        "long_lived",
        "on_off_flows",
        "poisson_short_flows",
        "to_flow_specs",
        "to_fluid_specs",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
