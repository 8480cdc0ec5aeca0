"""Canonical scenario fingerprints for the execution engine.

A *fingerprint* is a stable content hash of everything that determines a
scenario's numeric outcome: the link, the expanded flow mix (per-entry
RTTs included), durations, backend, seed, the fluid loss mode,
the cache schema, and the package version.  Two :class:`ScenarioPoint`
instances that would produce byte-identical simulator inputs hash to the
same fingerprint even when they were *spelled* differently (mixed-case
CCA names, zero-count mix entries, ``warmup=None`` vs. the resolved
``duration / 6`` default, ``(cc, n)`` vs. ``(cc, n, None)``).

Fingerprints key the on-disk result cache (:mod:`repro.exec.cache`);
bumping :data:`CACHE_SCHEMA` or the package version changes every
fingerprint, so stale cache entries self-invalidate by simply never
being looked up again.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro import __version__
from repro.scenario import LOSS_MODES, canonical_backend, expand_mix
from repro.scenario.spec import BottleneckSpec, check_run_window

__all__ = [
    "CACHE_SCHEMA",
    "ScenarioPoint",
    "fingerprint_payload",
    "link_params",
]

#: Cache payload schema version.  Bump whenever the fingerprinted inputs
#: or the cached payload layout change incompatibly; old entries then
#: miss (different fingerprint) instead of being misread.
CACHE_SCHEMA = 4  # v4: spec-derived link identity (AQM / capacity trace).

#: Package version folded into every fingerprint so results cached by an
#: older simulator never masquerade as current ones.  Module-level (not
#: inlined) so tests can exercise version-bump invalidation.
REPRO_VERSION = __version__


def link_params(link: BottleneckSpec) -> Dict[str, Any]:
    """The JSON-serializable identity of a bottleneck configuration.

    Derived from the spec's own canonical form
    (:meth:`repro.scenario.BottleneckSpec.to_dict`) so a field added to
    the schema can never be silently dropped from fingerprints.
    """
    return link.to_dict()


def fingerprint_payload(kind: str, params: Dict[str, Any]) -> str:
    """Hash an arbitrary task descriptor into a cache fingerprint.

    ``kind`` namespaces descriptor families (``"run_mix"`` scenario
    points, ``"campaign_unit"``, ``"campaign_spec"``) so two families
    can never collide even if their parameter dicts coincide.  The hash
    covers a canonical JSON encoding (sorted keys, no whitespace) plus
    the schema and package versions.
    """
    envelope = {
        "kind": kind,
        "schema": CACHE_SCHEMA,
        "version": REPRO_VERSION,
        "params": params,
    }
    encoded = json.dumps(
        envelope, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ScenarioPoint:
    """One scenario request, in canonical form — what every figure,
    campaign and game hands the engine, and the engine the runner: one
    simulation at one seed (``runner.seed_points`` repeats it).

    A mix entry is ``(cc, count)`` or ``(cc, count, rtt_seconds)``: the
    entry's flows run at that base RTT instead of the link's (one CCA at
    several RTTs is several entries, which is how the §4.5 multi-RTT
    game is asked).  The constructor is the one validator of a request
    — every entry's CCA, zero-count ones included, must be in the
    ``repro.cc.laws`` table with an adapter for the backend — and
    normalizes it so that logically identical points compare (and
    hash) equal: CCA names are lowercased, zero-count mix entries
    dropped, a ``None`` entry RTT omitted, ``warmup`` resolved to its
    ``duration / 6`` default, and the backend reduced to its canonical
    name (:func:`repro.scenario.canonical_backend`).  Mix *order* is
    preserved — flow order determines per-flow seeding in the fluid
    substrate, so it is part of the scenario's identity.
    """

    link: BottleneckSpec
    mix: Tuple[Tuple[Any, ...], ...]
    duration: float = 60.0
    warmup: Optional[float] = None
    backend: str = "fluid"
    seed: int = 0
    loss_mode: str = "proportional"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "backend", canonical_backend(self.backend)
        )
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(
                f"loss_mode must be one of {LOSS_MODES}, "
                f"got {self.loss_mode!r}"
            )
        if self.duration <= 0:
            raise ValueError(
                f"duration must be positive, got {self.duration}"
            )
        # Imported here, on first use: the name table pulls in the
        # per-ACK controllers (pure Python), never a simulator.
        from repro.cc.laws.registry import ALGORITHMS

        mix = []
        for cc, count, *rtt in self.mix:
            spec = ALGORITHMS.get(cc.lower())
            if spec is None or self.backend not in spec.substrates:
                available = [
                    name
                    for name, known in ALGORITHMS.items()
                    if self.backend in known.substrates
                ]
                raise ValueError(
                    f"mix entry {(cc, count, *rtt)}: unknown {self.backend} "
                    f"congestion control {cc!r}; available: {available}"
                )
            if count <= 0:
                continue
            if not rtt or rtt[0] is None:
                mix.append((cc.lower(), int(count)))
            elif rtt[0] > 0:
                mix.append((cc.lower(), int(count), float(rtt[0])))
            else:
                raise ValueError(
                    f"mix entry RTT must be positive, got {rtt[0]}"
                )
        if not mix:
            raise ValueError("mix must contain at least one non-zero entry")
        object.__setattr__(self, "mix", tuple(mix))
        if self.warmup is None:
            object.__setattr__(self, "warmup", self.duration / 6.0)
        check_run_window(self.duration, self.warmup)

    @property
    def rows(self) -> int:
        """Flow rows: this point's flows — its width in a vectorized
        batch, and with ``duration`` its cost."""
        return sum(entry[1] for entry in self.mix)

    def params(self) -> Dict[str, Any]:
        """The task descriptor hashed by :meth:`fingerprint`."""
        return {
            "link": link_params(self.link),
            # The expanded per-flow (cc, rtt) list is exactly what the
            # substrates consume, so it is the canonical mix identity.
            "flows": [list(flow) for flow in expand_mix(self.mix)],
            "mix": [list(entry) for entry in self.mix],
            "duration": self.duration,
            "warmup": self.warmup,
            "backend": self.backend,
            "seed": self.seed,
            "loss_mode": self.loss_mode,
        }

    def fingerprint(self) -> str:
        """The content-address of this scenario's result."""
        return fingerprint_payload("run_mix", self.params())
