"""Analysis utilities: fairness/error metrics and synchronization
detection over a run's recorded backoff times (the ``cc.backoff``
events on its telemetry bus).

These mechanize the judgements the paper makes when reading its
experiments — "within 5% error", "the CUBIC flows were indeed generally
not found to be synchronized", "we checked the traces".
"""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    "repro.analysis.metrics": (
        "fair_share_deviation",
        "fraction_within",
        "jains_index",
        "mean_absolute_error",
        "mean_confidence_interval",
        "mean_relative_error",
    ),
    "repro.analysis.sync": (
        "LossEventCluster",
        "classify_regime",
        "cluster_loss_events",
        "synchronization_index",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
