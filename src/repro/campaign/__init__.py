"""Declarative scenario campaigns with checkpointed, resumable sweeps.

The figure generators reproduce the paper; campaigns go beyond it: a
study is a small TOML/JSON *spec* — parameter axes, an expansion mode,
stages, derived metrics — expanded into checkpointable units and
executed through the :mod:`repro.exec` engine.  Completed units are
journaled durably, so a killed campaign resumes without re-simulating
anything, and an ``adaptive`` stage turns the paper's NE-region search
(Figure 9) into a ~20-line spec.  See ``docs/CAMPAIGNS.md``.
"""

from repro.campaign.expand import Unit, expand_axes, expand_units
from repro.campaign.journal import Journal, JournalError, JournalRecord
from repro.campaign.report import (
    ErrorRow,
    ModelErrorReport,
    model_error_report,
)
from repro.campaign.run import (
    CampaignError,
    CampaignSummary,
    UnitOutcome,
    iter_units,
    load_campaign,
    run_campaign,
)
from repro.campaign.sink import (
    CampaignSink,
    CsvSink,
    JsonlSink,
    SinkError,
    resolve_artifact,
)
from repro.campaign.spec import (
    Axis,
    CampaignSpec,
    SpecError,
    Stage,
    format_mix,
    load_spec,
    parse_mix,
    parse_spec,
)
from repro.campaign.status import campaign_progress, render_status
from repro.campaign.studies import (
    bundled_campaign_dir,
    fig9_campaign,
    list_bundled_campaigns,
)

__all__ = [
    "Axis",
    "CampaignError",
    "CampaignSink",
    "CampaignSpec",
    "CampaignSummary",
    "CsvSink",
    "ErrorRow",
    "Journal",
    "JournalError",
    "JournalRecord",
    "JsonlSink",
    "ModelErrorReport",
    "SinkError",
    "SpecError",
    "Stage",
    "Unit",
    "UnitOutcome",
    "bundled_campaign_dir",
    "campaign_progress",
    "render_status",
    "expand_axes",
    "expand_units",
    "fig9_campaign",
    "format_mix",
    "iter_units",
    "list_bundled_campaigns",
    "load_campaign",
    "load_spec",
    "model_error_report",
    "parse_mix",
    "parse_spec",
    "resolve_artifact",
    "run_campaign",
]
