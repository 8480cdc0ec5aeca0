"""Axis expansion: a validated spec becomes a flat list of work units.

``grid`` expansion takes the Cartesian product of the axes (in
declaration order, rightmost fastest — the order the figure sweeps have
always iterated); ``zip`` pairs equal-length axes element-wise.  Each
combination crossed with each stage yields a :class:`Unit` — the atom of
campaign execution, checkpointing, and resumption.  A unit's identity
(:meth:`Unit.unit_id`) is a content fingerprint over the fully resolved
parameters *and* its position, so the checkpoint journal can match
completed units across process restarts without trusting list order
alone.

Resolution rules keep fingerprints identical to the hand-coded figure
sweeps: when a combination overrides only ``buffer_bdp``, the unit link
is ``spec.link.with_buffer_bdp(value)`` with the axis value exactly as
authored (an integer ``2`` stays ``2``, as in the original
``buffers = [0.5, 2, 5, ...]`` lists), so campaign runs and figure runs
share result-cache entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.campaign.spec import CampaignSpec
from repro.campaign.vocab import (
    KINDS,
    POINT_PARAMS,
    Mix,
    SpecError,
    format_mix,
)
from repro.exec.fingerprint import (
    ScenarioPoint,
    fingerprint_payload,
    link_params,
)
from repro.util.config import LinkConfig

__all__ = ["Unit", "expand_axes", "expand_units"]


@dataclass(frozen=True)
class Unit:
    """One checkpointable atom of campaign work.

    The resolved scenario parameters every kind carries, plus the
    stage's ``options`` as resolved for this combination (readable as
    attributes: ``unit.flows``) and ``search``, the unit's number among
    the units one combination yields — for ``sweep`` stages a unit is
    one scenario point; for ``adaptive`` stages it is one complete NE
    bisection, one of the combination's independent repetitions.
    """

    index: int
    stage: str
    kind: str
    combo: Tuple[Tuple[str, Any], ...]
    link: LinkConfig
    duration: float
    backend: str
    trials: int
    seed: int
    loss_mode: str
    #: None when the unit's kind derives the split itself.
    mix: Optional[Mix] = None
    options: Tuple[Tuple[str, Any], ...] = ()
    search: int = 0

    def __post_init__(self) -> None:
        self.__dict__.update(self.options)

    def combo_dict(self) -> Dict[str, Any]:
        """The swept values this unit was expanded from (CSV columns)."""
        out: Dict[str, Any] = {}
        for name, value in self.combo:
            out[name] = format_mix(value) if name == "mix" else value
        return out

    def scenario(self) -> Dict[str, Any]:
        """The resolved scenario-point scalars, by ``POINT_PARAMS`` name
        (the keywords ``ScenarioPoint`` and the runner builders take)."""
        return {p.name: getattr(self, p.name) for p in POINT_PARAMS}

    def params(self) -> Dict[str, Any]:
        """The resolved-parameter descriptor hashed by :meth:`unit_id`."""
        return {
            "index": self.index,
            "stage": self.stage,
            "type": self.kind,
            "link": link_params(self.link),
            **self.scenario(),
            **KINDS[self.kind].unit_params(self),
        }

    def unit_id(self) -> str:
        """Stable identity used by the checkpoint journal.

        Hashed on first use and kept on the (frozen) unit: a run asks
        for it several times — the journal cross-check, the resume
        skip scan, the outcome — and every ask after the first is a
        lookup.  ``expand_units`` builds fresh units, so nothing
        outlives the run that expanded them.
        """
        unit_id = self.__dict__.get("_unit_id")
        if unit_id is None:
            unit_id = fingerprint_payload("campaign_unit", self.params())
            self.__dict__["_unit_id"] = unit_id
        return unit_id

    def to_point(self) -> ScenarioPoint:
        """The scenario point a mix-running (``sweep``) unit executes."""
        if self.mix is None:
            raise ValueError(
                f"unit {self.index} is {self.kind!r}, not a sweep point"
            )
        return ScenarioPoint(link=self.link, mix=self.mix, **self.scenario())


def expand_axes(spec: CampaignSpec) -> List[Tuple[Tuple[str, Any], ...]]:
    """Expand the spec's axes into combinations of ``(name, value)``.

    ``grid`` is the Cartesian product in declaration order (rightmost
    axis fastest); ``zip`` pairs axes element-wise (lengths validated at
    parse time).
    """
    names = [axis.name for axis in spec.axes]
    if spec.expand == "zip":
        rows: Iterator[Tuple[Any, ...]] = zip(
            *(axis.values for axis in spec.axes)
        )
    else:
        rows = itertools.product(*(axis.values for axis in spec.axes))
    return [tuple(zip(names, row)) for row in rows]


def _resolve_link(spec: CampaignSpec, combo: Dict[str, Any]) -> LinkConfig:
    base = spec.link
    if "bandwidth_mbps" in combo or "rtt_ms" in combo:
        link = LinkConfig.from_mbps_ms(
            combo.get("bandwidth_mbps", base.capacity_mbps),
            combo.get("rtt_ms", base.rtt_ms),
            combo.get("buffer_bdp", base.buffer_bdp),
            mss=base.mss,
            aqm=base.aqm,
            capacity_trace=base.capacity_trace,
        )
    elif "buffer_bdp" in combo:
        # Buffer-only sweeps reuse the base link verbatim so float
        # identity (and therefore cache fingerprints) matches the
        # hand-coded ``base.with_buffer_bdp(depth)`` figure loops.
        link = base.with_buffer_bdp(combo["buffer_bdp"])
    else:
        link = base
    # Scenario axes layer on top of the geometric resolution so the
    # drop-tail/constant default path above keeps its historical
    # object (and fingerprint) identity.
    try:
        if "aqm" in combo or "ecn" in combo:
            link = link.with_aqm(
                combo.get("aqm", link.aqm), ecn=combo.get("ecn")
            )
        if "capacity_trace" in combo:
            link = link.with_capacity_trace(combo["capacity_trace"])
    except ValueError as exc:
        raise SpecError(f"combination {dict(combo)!r}: {exc}") from None
    return link


def expand_units(spec: CampaignSpec) -> List[Unit]:
    """Every unit of the campaign, in deterministic execution order.

    Units are ordered stage-by-stage; within a stage, combinations in
    expansion order; within an adaptive combination, searches ascending
    — matching the nesting of the original figure-9 loops so resumed
    and fresh runs write rows in the same order.
    """
    combos = expand_axes(spec)
    defaults = {p.name: getattr(spec, p.name) for p in POINT_PARAMS}
    units: List[Unit] = []
    for stage in spec.stages:
        kind = KINDS[stage.kind]
        for combo in combos:
            resolved = dict(combo)
            common = {
                name: resolved.get(name, value)
                for name, value in defaults.items()
            }
            common["link"] = _resolve_link(spec, resolved)
            if "mix" in kind.params:
                common["mix"] = resolved.get("mix", spec.mix)
            # An axis named after an option overrides it (AXES admits
            # an option only if its kind's ``params`` names it).
            options = tuple(
                (name, resolved.get(name, value))
                for name, value in stage.options
            )
            count = getattr(stage, kind.replicas) if kind.replicas else 1
            for search in range(count):
                units.append(
                    Unit(
                        index=len(units),
                        stage=stage.name,
                        kind=stage.kind,
                        combo=combo,
                        options=options,
                        search=search,
                        **common,
                    )
                )
    return units
