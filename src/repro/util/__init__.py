"""Shared utilities: unit conversions, link configuration, and filters.

This package holds the small, dependency-free building blocks used by both
the analytical models (:mod:`repro.core`) and the simulators
(:mod:`repro.sim`, :mod:`repro.fluidsim`).
"""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    "repro.util.config": ("LinkConfig",),
    "repro.util.filters": (
        "WindowedFilter",
        "WindowedMax",
        "WindowedMin",
    ),
    "repro.util.units": (
        "MSS_BYTES",
        "bits_to_bytes",
        "bytes_to_bits",
        "bytes_to_mbit",
        "bytes_to_packets",
        "mbps_to_bps",
        "mbps_to_bytes_per_sec",
        "ms_to_s",
        "packets_to_bytes",
        "s_to_ms",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
