"""Programmatic builders for the studies the repo ships as campaigns.

:func:`fig9_campaign` and :func:`fig11_campaign` build the NE-region
studies of the paper's Figures 9 and 11 as
:class:`~repro.campaign.spec.CampaignSpec` objects — the specs
:func:`repro.experiments.figures.figure9` / ``figure11`` run under the
hood, both one ``adaptive`` stage over a buffer sweep.  The quick
Figure-9 spec is also checked in at
``examples/campaigns/fig9-ne-quick.toml`` (a test pins the fingerprints
equal), so the TOML file stays a copy-paste starting point for users
with one source of truth for the numbers.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List

from repro.campaign.spec import CampaignSpec, parse_spec
from repro.util.config import LinkConfig

__all__ = [
    "bundled_campaign_dir",
    "fig9_campaign",
    "list_bundled_campaigns",
]

#: Buffer depths (BDP) of the quick/full NE panels.
FIG9_QUICK_BUFFERS = [0.5, 2, 5, 10, 20, 35, 50]
FIG11_QUICK_BUFFERS = [2, 5, 10, 20, 35, 50]
FULL_BUFFERS = [0.5] + [float(b) for b in range(1, 51)]


def _ne_study(
    name: str,
    description: str,
    capacity_mbps: float,
    rtt_ms: float,
    scale: str,
    seed: int,
    challenger: str,
    searches: int,
    axes: Dict[str, List[Any]],
) -> CampaignSpec:
    """An empirical-NE study: one adaptive stage of CUBIC vs.
    ``challenger`` over ``axes`` — 50 flows for 120 s at full scale,
    20 flows for 110 s at quick scale (``{flows}`` in ``description``)."""
    from repro.experiments.figures import _check_scale

    full = _check_scale(scale)
    flows = 50 if full else 20
    # Built the way every figure builds its links, so the CLI's
    # --aqm/--ecn/--capacity-trace overrides reach the study.
    base = LinkConfig.from_mbps_ms(capacity_mbps, rtt_ms, 1.0)
    data = {
        "name": name,
        "description": description.format(flows=flows),
        "link": {
            "bandwidth_mbps": capacity_mbps,
            "rtt_ms": rtt_ms,
            "buffer_bdp": 1.0,
            "aqm": base.aqm.to_dict(),
            "capacity_trace": base.capacity_trace.to_dict(),
        },
        "defaults": {
            "duration": 120.0 if full else 110.0,
            "backend": "fluid",
            "trials": 1,
            "seed": seed,
        },
        "expand": "grid",
        "axes": [{"name": n, "values": v} for n, v in axes.items()],
        "stages": [
            {
                "name": "ne",
                "type": "adaptive",
                "flows": flows,
                "challenger": challenger,
                "incumbent": "cubic",
                "searches": searches,
            }
        ],
    }
    return parse_spec(data, source=name)


def fig9_campaign(
    capacity_mbps: float = 100.0,
    rtt_ms: float = 40.0,
    scale: str = "quick",
    seed: int = 0,
    challenger: str = "bbr",
) -> CampaignSpec:
    """The Figure-9 NE-region study as a campaign spec.

    Parameters mirror :func:`repro.experiments.figures.figure9`; the
    expansion reproduces its loops exactly (buffer axis outer, NE
    searches inner, ``seed + 7919·search`` seeding), so results land on
    the same cache fingerprints as the historical figure path.
    """
    full = scale == "full"
    return _ne_study(
        f"fig9-{capacity_mbps:g}mbps-{rtt_ms:g}ms-{scale}"
        + ("" if challenger == "bbr" else f"-{challenger}"),
        "NE region vs buffer depth: {flows} flows, "
        f"{capacity_mbps:g} Mbps / {rtt_ms:g} ms (fig9 {scale} panel)",
        capacity_mbps,
        rtt_ms,
        scale,
        seed,
        challenger,
        searches=10 if full else 2,
        axes={"buffer_bdp": FULL_BUFFERS if full else FIG9_QUICK_BUFFERS},
    )


def fig11_campaign(
    capacity_mbps: float = 50.0, scale: str = "quick", seed: int = 0
) -> CampaignSpec:
    """The Figure-11 study: the CUBIC-vs-BBRv2 NE, one search per
    (RTT, buffer) — the nesting of the historical figure loops, so the
    points land on the fingerprints that path cached."""
    full = scale == "full"
    return _ne_study(
        f"fig11-{capacity_mbps:g}mbps-{scale}",
        "BBRv2 NE vs buffer depth: {flows} flows, "
        f"{capacity_mbps:g} Mbps (fig11 {scale} panel)",
        capacity_mbps,
        40.0,
        scale,
        seed,
        "bbr2",
        searches=1,
        axes={
            "rtt_ms": [20, 40, 80] if full else [40],
            "buffer_bdp": FULL_BUFFERS if full else FIG11_QUICK_BUFFERS,
        },
    )


def bundled_campaign_dir() -> Path:
    """Where the example specs shipped with the repo live."""
    return Path(__file__).resolve().parents[3] / "examples" / "campaigns"


def list_bundled_campaigns() -> List[Path]:
    """The checked-in example specs, sorted by name."""
    root = bundled_campaign_dir()
    if not root.is_dir():
        return []
    return sorted(
        path
        for path in root.iterdir()
        if path.suffix.lower() in (".toml", ".json")
    )
