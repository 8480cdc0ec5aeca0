"""Per-run manifests: the reproducibility record written next to results.

A :class:`RunManifest` captures everything needed to re-run (and audit) a
simulation: the link configuration, flow mix, seed, backend, package
version, plus outcome aggregates — wall time, event counts, and a compact
per-flow summary.  It is written as JSON next to the trace (and embedded
as the first record *inside* the JSONL trace, so a trace file is
self-describing even when moved).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import __version__
from repro.obs.bus import Telemetry
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
    "manifest_path_for",
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
    counters: Dict[str, float] = field(default_factory=dict)
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
        obs: Optional[Telemetry] = None,
        wall_time_s: float = 0.0,
        flows: Optional[List[Dict[str, Any]]] = None,
    ) -> "RunManifest":
        """Assemble a manifest from a run's configuration and telemetry."""
        counters = dict(obs.counters) if obs is not None else {}
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
            counters=counters,
            flows=flows or [],
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready)."""
        return asdict(self)

    def write(self, path: str) -> None:
        """Write the manifest as pretty-printed JSON to ``path``."""
        write_json_atomic(path, self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        """Rebuild a manifest from its dict form (ignores unknown keys)."""
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        kwargs = {k: v for k, v in data.items() if k in known}
        kwargs["mix"] = [
            (cc, int(count)) for cc, count in kwargs.get("mix", [])
        ]
        return cls(**kwargs)

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        """Read a manifest previously written with :meth:`write`."""
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def cc_of_flow(self, flow_id: int) -> Optional[str]:
        """CCA name of ``flow_id`` from the per-flow summary, if known."""
        for row in self.flows:
            if row.get("flow_id") == flow_id:
                return row.get("cc")
        return None


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


def manifest_path_for(trace_path: str) -> str:
    """The sibling manifest path for a JSONL trace path.

    ``run.jsonl`` → ``run.manifest.json`` (extension-insensitive: any
    final suffix is replaced; a bare name gets ``.manifest.json``).
    """
    dot = trace_path.rfind(".")
    slash = max(trace_path.rfind("/"), trace_path.rfind("\\"))
    stem = trace_path[:dot] if dot > slash else trace_path
    return stem + ".manifest.json"
