"""repro.obs — unified telemetry across both simulator substrates.

A low-overhead structured telemetry layer: a bus of counters, typed
events and periodic samples (:mod:`repro.obs.bus`); run manifests
(:mod:`repro.obs.manifest`); a unified JSONL trace — the one record of
an instrumented run, manifest first, then samples, events and counters
(:mod:`repro.obs.export`); run-summary reports rendered from that trace
(:mod:`repro.obs.report`); hierarchical wall-clock
*spans* exported as Chrome trace-event JSON (:mod:`repro.obs.trace`);
and live progress/ETA/worker-health tracking
(:mod:`repro.obs.progress`).

Telemetry is **disabled by default** and is a strict no-op when disabled:
every instrumentation site in the packet simulator, the fluid simulator,
and the congestion controllers guards on ``obs is not None``.  Enable it
for one simulation by handing it a :class:`Telemetry` instance
(``run_mix(..., obs=bus)``), which is what ``repro-bbr simulate
--trace-out`` does; there is no process-wide bus.  The names below
are re-exported lazily: the span tracer loads without the trace
exporter.
"""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    "repro.obs.bus": ("Telemetry", "TelemetryEvent"),
    "repro.obs.export": ("TraceData", "read_trace", "write_trace"),
    "repro.util.jsonfile": ("open_maybe_gzip",),
    "repro.obs.manifest": (
        "CAMPAIGN_SCHEMA",
        "SCHEMA",
        "CampaignManifest",
        "RunManifest",
    ),
    "repro.obs.progress": (
        "ProgressTracker",
        "eta_seconds",
        "format_duration",
        "rss_self_kb",
    ),
    "repro.obs.report": ("FlowReport", "RunReport", "load_report"),
    "repro.obs.trace": (
        "ChromeTrace",
        "Span",
        "SpanAggregate",
        "Tracer",
        "aggregate_spans",
        "read_chrome_trace",
        "render_span_report",
        "write_chrome_trace",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
