"""Declarative campaign specifications: parse + validate.

A *campaign* is a study declared as data instead of code: parameter
axes over the scenario space (link bandwidth/RTT/buffer, CCA mixes,
seeds, durations, backend), an expansion mode (``grid`` product or
``zip`` pairing), one or more *stages* that consume the expanded
combinations, and derived-metric columns for the output CSV.  Specs are
authored as TOML (parsed with the stdlib ``tomllib``) or JSON; the
in-memory form is :class:`CampaignSpec`, whose canonical dict
(:meth:`CampaignSpec.to_dict`) round-trips through :func:`parse_spec`
and is hashed into a *spec fingerprint* that keys the checkpoint
journal (:mod:`repro.campaign.journal`).

What a spec may set or sweep, and what each stage kind (``sweep``,
``adaptive``, ``population``) means, is declared once in
:mod:`repro.campaign.vocab`; this module parses a spec against those
tables.

Every validation failure raises :class:`SpecError` with a one-line,
actionable message naming the offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.vocab import (
    AXES,
    DEFAULT_PARAMS,
    KINDS,
    LINK_PARAMS,
    METRICS,
    POINT_PARAMS,
    Mix,
    Param,
    SpecError,
    check_cca,
    format_mix,
    one_of,
    parse_mix,
    parse_table,
)
from repro.exec.fingerprint import fingerprint_payload
from repro.scenario import parse_aqm, parse_capacity_trace
from repro.util.config import LinkConfig

__all__ = [
    "Axis",
    "CampaignSpec",
    "SpecError",
    "Stage",
    "format_mix",
    "load_spec",
    "parse_mix",
    "parse_spec",
]

EXPAND_MODES = ("grid", "zip")


def _bare_name(value: str, where: str) -> str:
    if "/" in value or "\\" in value or not value:
        raise SpecError(
            f"{where}: must be a bare file name, got {value!r}"
        )
    return value


#: The top-level scalar keys and the ``[output]`` keys.  ``jsonl`` is
#: the optional row-stream mirror of the CSV.
TOP_PARAMS = (
    Param("description", str, ""),
    Param("expand", str, "grid", check=one_of("expand", EXPAND_MODES)),
)
OUTPUT_PARAMS = (
    Param("csv", str, "results.csv", check=_bare_name),
    Param("jsonl", str, None, check=_bare_name),
)


def _check_metric(name: str, where: str) -> str:
    if not isinstance(name, str):
        raise SpecError(f"{where}: metric names must be strings")
    base, sep, cc = name.partition(":")
    per_cc = [m for m, (takes_cc, _fn) in METRICS.items() if takes_cc]
    if base not in METRICS or (sep and base not in per_cc):
        raise SpecError(
            f"{where}: unknown metric {name!r} (scalar: "
            f"{', '.join(m for m in METRICS if m not in per_cc)}; "
            f"per-CCA: {', '.join(m + ':<cc>' for m in per_cc)})"
        )
    if base not in per_cc:
        return name
    if not cc:
        raise SpecError(
            f"{where}: metric {name!r} needs a CCA argument "
            f"(e.g. '{base}:bbr')"
        )
    return f"{base}:{check_cca(cc, where)}"


@dataclass(frozen=True)
class Axis:
    """One swept parameter: a name and the values it takes."""

    name: str
    values: Tuple[Any, ...]

    def to_dict(self) -> Dict[str, Any]:
        values: List[Any] = []
        for v in self.values:
            values.append([list(e) for e in v] if self.name == "mix" else v)
        return {"name": self.name, "values": values}


@dataclass(frozen=True)
class Stage:
    """One pass over the expanded combinations: a name, a kind (a key
    of :data:`repro.campaign.vocab.KINDS`) and that kind's validated
    options, also readable as attributes (``stage.flows``)."""

    name: str
    kind: str
    options: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        self.__dict__.update(self.options)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "type": self.kind, **dict(self.options)}


@dataclass(frozen=True)
class CampaignSpec:
    """A fully validated campaign declaration."""

    name: str
    description: str
    link: LinkConfig
    duration: float
    backend: str
    trials: int
    seed: int
    loss_mode: str
    mix: Optional[Mix]
    expand: str
    axes: Tuple[Axis, ...]
    stages: Tuple[Stage, ...]
    metrics: Tuple[str, ...]
    csv_name: str = "results.csv"
    #: Optional JSONL mirror of the result rows (``output.jsonl``);
    #: None means no mirror is written.
    jsonl_name: Optional[str] = None

    def axis(self, name: str) -> Optional[Axis]:
        """The axis named ``name``, or None when it is not swept."""
        for axis in self.axes:
            if axis.name == name:
                return axis
        return None

    def to_dict(self) -> Dict[str, Any]:
        """Canonical, JSON-able form; re-parses to an equal spec."""
        data: Dict[str, Any] = {
            "name": self.name,
            "description": self.description,
            "link": {
                "bandwidth_mbps": float(self.link.capacity_mbps),
                "rtt_ms": float(self.link.rtt_ms),
                "buffer_bdp": float(self.link.buffer_bdp),
                "mss": int(self.link.mss),
                "aqm": self.link.aqm.to_dict(),
                "capacity_trace": self.link.capacity_trace.to_dict(),
            },
            "defaults": {
                param.name: param.type(getattr(self, param.name))
                for param in POINT_PARAMS
            },
            "expand": self.expand,
            "axes": [axis.to_dict() for axis in self.axes],
            "stages": [stage.to_dict() for stage in self.stages],
            "metrics": list(self.metrics),
            "output": {"csv": self.csv_name},
        }
        if self.jsonl_name is not None:
            # Added only when set: the key's absence keeps fingerprints
            # (and therefore existing journals) of csv-only campaigns
            # stable across versions.
            data["output"]["jsonl"] = self.jsonl_name
        if self.mix is not None:
            data["defaults"]["mix"] = [list(e) for e in self.mix]
        return data

    def fingerprint(self) -> str:
        """Content hash of the canonical spec (keys the journal)."""
        return fingerprint_payload("campaign_spec", self.to_dict())


def _get_table(data: Dict[str, Any], key: str, source: str) -> Dict[str, Any]:
    table = data.get(key, {})
    if not isinstance(table, dict):
        raise SpecError(f"{source}: [{key}] must be a table/object")
    return table


def _parse_section(
    data: Dict[str, Any], key: str, params: Sequence[Any], source: str
) -> Dict[str, Any]:
    """The ``[key]`` table validated against its declared parameters."""
    table = _get_table(data, key, source)
    known = [param.name for param in params]
    for name in table:
        if name not in known:
            raise SpecError(f"{source}: [{key}] has unknown key {name!r}")
    return parse_table(table, params, f"{source}: {key}")


def _parse_axis(entry: Any, index: int, source: str) -> Axis:
    where = f"{source}: axes[{index}]"
    if not isinstance(entry, dict):
        raise SpecError(f"{where}: each [[axes]] entry must be a table")
    name = entry.get("name")
    if name not in AXES:
        raise SpecError(
            f"{where}.name: {name!r} is not a sweepable parameter "
            f"(choose from: {', '.join(AXES)})"
        )
    values = entry.get("values")
    if not isinstance(values, (list, tuple)) or not values:
        raise SpecError(
            f"{where}.values: expected a non-empty list of values"
        )
    return Axis(
        name=name,
        values=tuple(
            AXES[name].parse(value, f"{where}.values[{j}]", authored=True)
            for j, value in enumerate(values)
        ),
    )


def _parse_stage(entry: Any, index: int, source: str) -> Stage:
    where = f"{source}: stages[{index}]"
    if not isinstance(entry, dict):
        raise SpecError(f"{where}: each [[stages]] entry must be a table")
    kind = entry.get("type", "sweep")
    if kind not in KINDS:
        raise SpecError(
            f"{where}.type: {kind!r} is not a stage type "
            f"(choose from: {', '.join(KINDS)})"
        )
    options = parse_table(
        entry,
        (Param("name", str, f"stage{index}"),) + KINDS[kind].options,
        where,
    )
    if "challenger" in options and (
        options["challenger"] == options["incumbent"]
    ):
        raise SpecError(
            f"{where}: challenger and incumbent are both "
            f"{options['challenger']!r}"
        )
    return Stage(options.pop("name"), kind, tuple(options.items()))


def _unique_names(items: Sequence[Any], what: str, source: str) -> List[str]:
    names: List[str] = []
    for item in items:
        if item.name in names:
            raise SpecError(
                f"{source}: {what} {item.name!r} is declared twice"
            )
        names.append(item.name)
    return names


def _default_metrics(
    mix: Optional[Mix], axes: Sequence[Axis]
) -> Tuple[str, ...]:
    """Per-flow throughput for every CCA seen, plus delay and drops."""
    ccas: List[str] = []
    mixes: List[Mix] = [] if mix is None else [mix]
    for axis in axes:
        if axis.name == "mix":
            mixes.extend(axis.values)
    for m in mixes:
        for cc, _count in m:
            if cc not in ccas:
                ccas.append(cc)
    metrics = [f"per_flow_mbps:{cc}" for cc in ccas]
    metrics += ["queuing_delay_ms", "drop_rate"]
    return tuple(metrics)


def parse_spec(data: Any, source: str = "spec") -> CampaignSpec:
    """Validate a raw spec mapping into a :class:`CampaignSpec`.

    Accepts both the authoring shape (TOML/JSON files) and the
    canonical :meth:`CampaignSpec.to_dict` shape; the two are
    deliberately identical.  ``source`` prefixes every error message so
    diagnostics name the offending file.
    """
    if not isinstance(data, dict):
        raise SpecError(
            f"{source}: top level must be a table/object, got "
            f"{type(data).__name__}"
        )
    name = data.get("name")
    if not isinstance(name, str) or not name.strip():
        raise SpecError(f"{source}: 'name' is required and must be a string")
    top = parse_table(data, TOP_PARAMS, source)

    set_ = _parse_section(data, "link", LINK_PARAMS, source)
    try:
        link = LinkConfig.from_mbps_ms(
            set_["bandwidth_mbps"],
            set_["rtt_ms"],
            set_["buffer_bdp"],
            mss=set_["mss"],
            aqm=parse_aqm(set_["aqm"], ecn=set_["ecn"]),
            capacity_trace=parse_capacity_trace(set_["capacity_trace"]),
        )
    except ValueError as exc:
        raise SpecError(f"{source}: [link] {exc}") from None
    defaults = _parse_section(data, "defaults", DEFAULT_PARAMS, source)
    mix = defaults["mix"]

    raw_axes = data.get("axes")
    if not isinstance(raw_axes, (list, tuple)) or not raw_axes:
        raise SpecError(
            f"{source}: no axes declared — add at least one [[axes]] "
            "table with 'name' and 'values'"
        )
    axes = tuple(
        _parse_axis(entry, i, source) for i, entry in enumerate(raw_axes)
    )
    seen_axes = _unique_names(axes, "axis", source)
    if top["expand"] == "zip":
        lengths = {len(axis.values) for axis in axes}
        if len(lengths) > 1:
            detail = ", ".join(
                f"{axis.name}={len(axis.values)}" for axis in axes
            )
            raise SpecError(
                f"{source}: zip expansion needs equal-length axes "
                f"({detail})"
            )

    raw_stages = data.get("stages", [{"type": "sweep"}])
    if not isinstance(raw_stages, (list, tuple)) or not raw_stages:
        raise SpecError(f"{source}: stages must be a non-empty list")
    stages = tuple(
        _parse_stage(entry, i, source) for i, entry in enumerate(raw_stages)
    )
    _unique_names(stages, "stage", source)

    # Cross-checks between axes and stages, answered by the kinds.
    kinds = {stage.kind: KINDS[stage.kind] for stage in stages}
    takes_mix = [name for name, k in kinds.items() if "mix" in k.params]
    if takes_mix and mix is None and "mix" not in seen_axes:
        raise SpecError(
            f"{source}: {takes_mix[0]} stages need a flow mix — set "
            "[defaults] mix or declare a mix axis"
        )
    derives_mix = [name for name in kinds if name not in takes_mix]
    if derives_mix and "mix" in seen_axes:
        raise SpecError(
            f"{source}: {derives_mix[0]} stages derive the mix split "
            "themselves; remove the mix axis or use a sweep stage"
        )
    for axis in axes:
        if not any(axis.name in k.params for k in kinds.values()):
            users = (n for n, k in KINDS.items() if axis.name in k.params)
            raise SpecError(
                f"{source}: axis {axis.name} only applies to "
                f"{', '.join(users)} stages — add one or drop the axis"
            )

    raw_metrics = data.get("metrics", {})
    if isinstance(raw_metrics, dict):
        raw_metrics = raw_metrics.get("columns", None)
    if raw_metrics is None:
        metrics: Tuple[str, ...] = (
            _default_metrics(mix, axes) if takes_mix else ()
        )
    else:
        if not isinstance(raw_metrics, (list, tuple)):
            raise SpecError(
                f"{source}: metrics.columns must be a list of metric names"
            )
        metrics = tuple(
            _check_metric(m, f"{source}: metrics") for m in raw_metrics
        )

    output = parse_table(
        _get_table(data, "output", source), OUTPUT_PARAMS, f"{source}: output"
    )

    return CampaignSpec(
        name=name.strip(),
        link=link,
        axes=axes,
        stages=stages,
        metrics=metrics,
        csv_name=output["csv"],
        jsonl_name=output["jsonl"],
        **top,
        **defaults,
    )


def load_spec(path: Union[str, Path]) -> CampaignSpec:
    """Load and validate a campaign spec from a ``.toml``/``.json`` file."""
    path = Path(path)
    source = str(path)
    suffix = path.suffix.lower()
    if suffix not in (".toml", ".json"):
        raise SpecError(
            f"{source}: unsupported spec format {suffix or '(none)'!r}; "
            "use .toml or .json"
        )
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise SpecError(f"{source}: no such spec file") from None
    except OSError as exc:
        raise SpecError(f"{source}: cannot read spec: {exc}") from None
    if suffix == ".toml":
        import tomllib

        try:
            data = tomllib.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, tomllib.TOMLDecodeError) as exc:
            raise SpecError(f"{source}: invalid TOML: {exc}") from None
    else:
        try:
            data = json.loads(raw)
        except ValueError as exc:
            raise SpecError(f"{source}: invalid JSON: {exc}") from None
    return parse_spec(data, source=source)
