"""Run manifests: the reproducibility record of one run.

A :class:`RunManifest` captures everything needed to re-run (and audit) a
simulation: the link configuration, flow mix, seed, backend, package
version, plus outcome aggregates — wall time and a compact per-flow
summary.  It has one home: the first record of the JSONL trace
(:func:`repro.obs.export.write_trace`), so a trace file is
self-describing even when moved.  The run's counters are the trace's
``counter`` records, not a copy here.

A :class:`CampaignManifest` is the campaign directory's
``manifest.json``.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import __version__
from repro.scenario.spec import BottleneckSpec
from repro.util.jsonfile import write_json_atomic

#: Manifest schema identifier; bump on incompatible changes.
SCHEMA = "repro-obs/1"

#: Campaign manifest schema identifier.
CAMPAIGN_SCHEMA = "repro-campaign/1"

__all__ = [
    "CampaignManifest",
    "CAMPAIGN_SCHEMA",
    "RunManifest",
    "SCHEMA",
]


@dataclass
class RunManifest:
    """The JSON-serializable record of one simulation run."""

    schema: str
    version: str
    created_unix: float
    label: str
    link: Dict[str, Any]
    mix: List[Tuple[str, int]]
    backend: str
    duration: float
    warmup: Optional[float]
    trials: int
    seed: int
    wall_time_s: float = 0.0
    flows: List[Dict[str, Any]] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        label: str,
        link: BottleneckSpec,
        mix: Sequence[Tuple[str, int]],
        backend: str,
        duration: float,
        seed: int,
        trials: int = 1,
        warmup: Optional[float] = None,
        wall_time_s: float = 0.0,
        flows: Optional[List[Dict[str, Any]]] = None,
    ) -> "RunManifest":
        """Assemble a manifest from a run's configuration and outcome."""
        return cls(
            schema=SCHEMA,
            version=__version__,
            created_unix=time.time(),
            label=label,
            link={
                "capacity_mbps": link.capacity_mbps,
                "rtt_ms": link.rtt_ms,
                "buffer_bdp": link.buffer_bdp,
                "mss": link.mss,
            },
            mix=[(cc, int(count)) for cc, count in mix],
            backend=backend,
            duration=duration,
            warmup=warmup,
            trials=trials,
            seed=seed,
            wall_time_s=wall_time_s,
            flows=flows or [],
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        """Rebuild a manifest from its dict form.

        Unknown keys are ignored, so a record from an older writer (one
        that still carried ``counters``) loads.
        """
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        kwargs = {k: v for k, v in data.items() if k in known}
        kwargs["mix"] = [
            (cc, int(count)) for cc, count in kwargs.get("mix", [])
        ]
        return cls(**kwargs)


@dataclass
class CampaignManifest:
    """The JSON-serializable record of one completed campaign.

    Written as ``manifest.json`` in the campaign output directory; the
    ``fingerprint`` is the spec's content hash, so a manifest proves
    which study produced a CSV even after the directory is moved.
    """

    schema: str
    version: str
    created_unix: float
    spec_name: str
    fingerprint: str
    total_units: int
    from_journal: int
    executed: int
    rows: int
    wall_time_s: float
    csv: str
    exec_stats: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        spec_name: str,
        fingerprint: str,
        total_units: int,
        from_journal: int,
        executed: int,
        rows: int,
        wall_time_s: float,
        csv: str,
        exec_stats: Optional[Dict[str, int]] = None,
    ) -> "CampaignManifest":
        """Assemble a manifest from a finished campaign's counters."""
        return cls(
            schema=CAMPAIGN_SCHEMA,
            version=__version__,
            created_unix=time.time(),
            spec_name=spec_name,
            fingerprint=fingerprint,
            total_units=total_units,
            from_journal=from_journal,
            executed=executed,
            rows=rows,
            wall_time_s=wall_time_s,
            csv=csv,
            exec_stats=exec_stats or {},
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready)."""
        return asdict(self)

    def write(self, path: str) -> None:
        """Write the manifest as pretty-printed JSON to ``path``."""
        write_json_atomic(path, self.to_dict(), sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "CampaignManifest":
        """Read a manifest previously written with :meth:`write`."""
        with open(path) as f:
            data = json.load(f)
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{k: v for k, v in data.items() if k in known})
