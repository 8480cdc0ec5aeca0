"""Declarative scenario campaigns with checkpointed, resumable sweeps.

The figure generators reproduce the paper; campaigns go beyond it: a
study is a small TOML/JSON *spec* — parameter axes, an expansion mode,
stages, derived metrics — expanded into checkpointable units and
executed through the :mod:`repro.exec` engine.  Completed units are
journaled durably, so a killed campaign resumes without re-simulating
anything, and an ``adaptive`` stage turns the paper's NE-region search
(Figure 9) into a ~20-line spec.  See ``docs/CAMPAIGNS.md``.

The names below are re-exported lazily: running a campaign does not
load the ``report`` / ``status`` / ``studies`` commands.
"""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    "repro.campaign.expand": ("Unit", "expand_axes", "expand_units"),
    "repro.campaign.journal": ("Journal", "JournalError", "JournalRecord"),
    "repro.campaign.report": (
        "ErrorRow",
        "ModelErrorReport",
        "model_error_report",
    ),
    "repro.campaign.run": (
        "CampaignError",
        "CampaignSummary",
        "UnitOutcome",
        "iter_units",
        "load_campaign",
        "run_campaign",
    ),
    "repro.campaign.sink": (
        "CampaignSink",
        "CsvSink",
        "SinkError",
        "resolve_artifact",
    ),
    "repro.campaign.spec": (
        "Axis",
        "CampaignSpec",
        "SpecError",
        "Stage",
        "format_mix",
        "load_spec",
        "parse_mix",
        "parse_spec",
    ),
    "repro.campaign.status": ("campaign_progress", "render_status"),
    "repro.campaign.studies": (
        "bundled_campaign_dir",
        "fig9_campaign",
        "list_bundled_campaigns",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
