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

Stage kinds:

* ``sweep`` — one scenario point per expanded combination, resolved
  through the execution engine (parallel + cached);
* ``adaptive`` — per combination, bisect the CCA-split dimension for
  the empirical Nash equilibrium (``repro.core.game.bisect_nash``
  best-response logic), so NE-region studies like the paper's Figure 9
  are a ~20-line spec instead of a bespoke generator.

Every validation failure raises :class:`SpecError` with a one-line,
actionable message naming the offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.exec.fingerprint import fingerprint_payload
from repro.scenario import (
    canonical_backend,
    parse_aqm,
    parse_capacity_trace,
)
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


class SpecError(ValueError):
    """A campaign spec failed validation; the message is one line."""


#: Axes that sweep a float-valued scenario parameter.  ``epsilon`` is
#: the population-stage switching probability (noisy-choice dynamics).
FLOAT_AXES = ("bandwidth_mbps", "rtt_ms", "buffer_bdp", "duration", "epsilon")
#: Axes that sweep an int-valued scenario parameter.
INT_AXES = ("seed", "trials")
#: Axes that sweep a string-valued scenario parameter.  ``dynamics``
#: selects the population-stage update rule; ``aqm`` and
#: ``capacity_trace`` accept any :mod:`repro.scenario` spelling
#: (``"red"``, ``"steps:5@0.5"``, ...).
STR_AXES = ("backend", "loss_mode", "dynamics", "aqm", "capacity_trace")
#: Axes that sweep a boolean scenario parameter (``ecn`` toggles
#: marking on the swept/default AQM).
BOOL_AXES = ("ecn",)
#: Every sweepable axis name (``mix`` sweeps the flow mix itself).
AXIS_NAMES = FLOAT_AXES + INT_AXES + STR_AXES + BOOL_AXES + ("mix",)

#: Axes that only population stages consume.
POPULATION_AXES = ("epsilon", "dynamics")

EXPAND_MODES = ("grid", "zip")
STAGE_KINDS = ("sweep", "adaptive", "population")

#: Derived metrics that take no CCA argument.
SCALAR_METRICS = ("queuing_delay_ms", "drop_rate")
#: Derived metrics spelled ``name:<cc>``.
PER_CC_METRICS = (
    "per_flow_mbps",
    "aggregate_mbps",
    "loss_rate",
    "retransmits",
)

Mix = Tuple[Tuple[str, int], ...]


def _available_ccas() -> List[str]:
    from repro.cc import available_algorithms

    return list(available_algorithms())


def _check_cca(name: str, where: str) -> str:
    key = str(name).lower()
    available = _available_ccas()
    if key not in available:
        raise SpecError(
            f"{where}: unknown congestion control {name!r} "
            f"(available: {', '.join(available)})"
        )
    return key


def parse_mix(value: Any, where: str) -> Mix:
    """Parse a flow mix from ``"cubic:5,bbr:5"`` or ``[["cubic", 5], ...]``.

    CCA names are validated against the registry and lowercased;
    zero-count entries are kept out; at least one positive count is
    required.
    """
    entries: List[Tuple[str, int]] = []
    if isinstance(value, str):
        for item in value.split(","):
            item = item.strip()
            if not item:
                continue
            cc, sep, count = item.partition(":")
            if not sep or not cc:
                raise SpecError(
                    f"{where}: bad mix entry {item!r}; use 'name:count' "
                    "(e.g. 'cubic:5,bbr:5')"
                )
            try:
                n = int(count)
            except ValueError:
                raise SpecError(
                    f"{where}: mix count {count!r} is not an integer"
                ) from None
            entries.append((cc.strip(), n))
    elif isinstance(value, (list, tuple)):
        for item in value:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise SpecError(
                    f"{where}: mix entries must be [name, count] pairs, "
                    f"got {item!r}"
                )
            cc, n = item
            if not isinstance(n, int) or isinstance(n, bool):
                raise SpecError(
                    f"{where}: mix count {n!r} is not an integer"
                )
            entries.append((str(cc), n))
    else:
        raise SpecError(
            f"{where}: mix must be a 'name:count,...' string or a list "
            f"of [name, count] pairs, got {type(value).__name__}"
        )
    if not entries:
        raise SpecError(f"{where}: mix is empty")
    mix: List[Tuple[str, int]] = []
    for cc, n in entries:
        key = _check_cca(cc, where)
        if n < 0:
            raise SpecError(f"{where}: mix count for {key!r} is negative")
        if n > 0:
            mix.append((key, n))
    if not mix:
        raise SpecError(
            f"{where}: mix has no positive flow counts"
        )
    return tuple(mix)


def format_mix(mix: Sequence[Tuple[str, int]]) -> str:
    """Canonical one-token rendering of a mix (CSV cell / log form)."""
    return ",".join(f"{cc}:{count}" for cc, count in mix)


def _check_metric(name: str, where: str) -> str:
    if not isinstance(name, str):
        raise SpecError(f"{where}: metric names must be strings")
    base, sep, cc = name.partition(":")
    if base in SCALAR_METRICS and not sep:
        return name
    if base in PER_CC_METRICS:
        if not sep or not cc:
            raise SpecError(
                f"{where}: metric {name!r} needs a CCA argument "
                f"(e.g. '{base}:bbr')"
            )
        return f"{base}:{_check_cca(cc, where)}"
    raise SpecError(
        f"{where}: unknown metric {name!r} (scalar: "
        f"{', '.join(SCALAR_METRICS)}; per-CCA: "
        f"{', '.join(m + ':<cc>' for m in PER_CC_METRICS)})"
    )


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
    """One pass over the expanded combinations.

    ``sweep`` runs each combination as one scenario point; ``adaptive``
    bisects the incumbent/challenger split for the empirical NE at each
    combination (``searches`` independent repetitions, seed-offset by
    ``seed_stride`` — the spacing the figure-9 sweep has always used);
    ``population`` evolves a :mod:`repro.population` adoption
    trajectory per combination (``ticks`` steps of ``dynamics``, with
    the tiered payoff oracle calibrated at ``error_threshold``).
    """

    name: str
    kind: str
    flows: int = 0
    challenger: str = "bbr"
    incumbent: str = "cubic"
    searches: int = 1
    seed_stride: int = 7919
    dynamics: str = "replicator"
    ticks: int = 60
    epsilon: float = 0.2
    mutation: float = 0.0
    inertia: float = 0.5
    init_share: float = 0.1
    error_threshold: float = 0.1

    def to_dict(self) -> Dict[str, Any]:
        if self.kind == "sweep":
            return {"name": self.name, "type": self.kind}
        if self.kind == "population":
            return {
                "name": self.name,
                "type": self.kind,
                "flows": self.flows,
                "challenger": self.challenger,
                "incumbent": self.incumbent,
                "dynamics": self.dynamics,
                "ticks": self.ticks,
                "epsilon": self.epsilon,
                "mutation": self.mutation,
                "inertia": self.inertia,
                "init_share": self.init_share,
                "error_threshold": self.error_threshold,
            }
        return {
            "name": self.name,
            "type": self.kind,
            "flows": self.flows,
            "challenger": self.challenger,
            "incumbent": self.incumbent,
            "searches": self.searches,
            "seed_stride": self.seed_stride,
        }


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

    def stage(self, name: str) -> Stage:
        """The stage named ``name`` (unique by validation)."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"campaign {self.name!r} has no stage {name!r}")

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
                "duration": float(self.duration),
                "backend": self.backend,
                "trials": int(self.trials),
                "seed": int(self.seed),
                "loss_mode": self.loss_mode,
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


def _get_number(
    table: Dict[str, Any], key: str, default: float, where: str
) -> float:
    value = table.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{where}.{key}: expected a number, got {value!r}")
    return float(value)


def _get_int(table: Dict[str, Any], key: str, default: int, where: str) -> int:
    value = table.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def _get_str(table: Dict[str, Any], key: str, default: str, where: str) -> str:
    value = table.get(key, default)
    if not isinstance(value, str):
        raise SpecError(f"{where}.{key}: expected a string, got {value!r}")
    return value


def _check_backend(backend: str, where: str) -> str:
    """Validate a backend, keeping its declared spelling: unit ids and
    the spec fingerprint hash it, so journals written under a former
    spelling stay resumable (``ScenarioPoint`` canonicalises it)."""
    try:
        canonical_backend(backend)
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from None
    return backend


def _check_dynamics(name: str, where: str) -> str:
    from repro.population.dynamics import DYNAMICS

    if name not in DYNAMICS:
        raise SpecError(
            f"{where}: dynamics must be one of {', '.join(DYNAMICS)}, "
            f"got {name!r}"
        )
    return name


def _parse_axis(entry: Any, index: int, source: str) -> Axis:
    where = f"{source}: axes[{index}]"
    if not isinstance(entry, dict):
        raise SpecError(f"{where}: each [[axes]] entry must be a table")
    name = entry.get("name")
    if name not in AXIS_NAMES:
        raise SpecError(
            f"{where}.name: {name!r} is not a sweepable parameter "
            f"(choose from: {', '.join(AXIS_NAMES)})"
        )
    values = entry.get("values")
    if not isinstance(values, (list, tuple)) or not values:
        raise SpecError(
            f"{where}.values: expected a non-empty list of values"
        )
    parsed: List[Any] = []
    for j, value in enumerate(values):
        vwhere = f"{where}.values[{j}]"
        if name == "mix":
            parsed.append(parse_mix(value, vwhere))
        elif name in FLOAT_AXES:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SpecError(f"{vwhere}: expected a number, got {value!r}")
            if value <= 0:
                raise SpecError(f"{vwhere}: must be positive, got {value!r}")
            parsed.append(value)
        elif name in INT_AXES:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SpecError(
                    f"{vwhere}: expected an integer, got {value!r}"
                )
            if name == "trials" and value < 1:
                raise SpecError(f"{vwhere}: trials must be >= 1")
            parsed.append(value)
        elif name in BOOL_AXES:
            if not isinstance(value, bool):
                raise SpecError(f"{vwhere}: expected a boolean, got {value!r}")
            parsed.append(value)
        else:  # STR_AXES
            if not isinstance(value, str):
                raise SpecError(f"{vwhere}: expected a string, got {value!r}")
            if name == "backend":
                _check_backend(value, vwhere)
            if name == "dynamics":
                _check_dynamics(value, vwhere)
            if name == "aqm":
                try:
                    parse_aqm(value)
                except ValueError as exc:
                    raise SpecError(f"{vwhere}: {exc}") from None
            if name == "capacity_trace":
                try:
                    parse_capacity_trace(value)
                except ValueError as exc:
                    raise SpecError(f"{vwhere}: {exc}") from None
            parsed.append(value)
    return Axis(name=name, values=tuple(parsed))


def _parse_stage(entry: Any, index: int, source: str) -> Stage:
    where = f"{source}: stages[{index}]"
    if not isinstance(entry, dict):
        raise SpecError(f"{where}: each [[stages]] entry must be a table")
    kind = entry.get("type", "sweep")
    if kind not in STAGE_KINDS:
        raise SpecError(
            f"{where}.type: {kind!r} is not a stage type "
            f"(choose from: {', '.join(STAGE_KINDS)})"
        )
    name = _get_str(entry, "name", f"stage{index}", where)
    if kind == "sweep":
        return Stage(name=name, kind=kind)
    flows = _get_int(entry, "flows", 0, where)
    if flows < 2:
        raise SpecError(
            f"{where}.flows: {kind} stages need flows >= 2, got {flows}"
        )
    challenger = _check_cca(
        _get_str(entry, "challenger", "bbr", where), f"{where}.challenger"
    )
    incumbent = _check_cca(
        _get_str(entry, "incumbent", "cubic", where), f"{where}.incumbent"
    )
    if challenger == incumbent:
        raise SpecError(
            f"{where}: challenger and incumbent are both {challenger!r}"
        )
    if kind == "population":
        dynamics = _check_dynamics(
            _get_str(entry, "dynamics", "replicator", where),
            f"{where}.dynamics",
        )
        ticks = _get_int(entry, "ticks", 60, where)
        if ticks < 1:
            raise SpecError(f"{where}.ticks: must be >= 1, got {ticks}")
        epsilon = _get_number(entry, "epsilon", 0.2, where)
        if not 0.0 < epsilon <= 1.0:
            raise SpecError(
                f"{where}.epsilon: must be in (0, 1], got {epsilon}"
            )
        mutation = _get_number(entry, "mutation", 0.0, where)
        if not 0.0 <= mutation < 1.0:
            raise SpecError(
                f"{where}.mutation: must be in [0, 1), got {mutation}"
            )
        inertia = _get_number(entry, "inertia", 0.5, where)
        if not 0.0 <= inertia < 1.0:
            raise SpecError(
                f"{where}.inertia: must be in [0, 1), got {inertia}"
            )
        init_share = _get_number(entry, "init_share", 0.1, where)
        if not 0.0 <= init_share <= 1.0:
            raise SpecError(
                f"{where}.init_share: must be in [0, 1], got {init_share}"
            )
        error_threshold = _get_number(entry, "error_threshold", 0.1, where)
        if error_threshold <= 0:
            raise SpecError(
                f"{where}.error_threshold: must be positive, "
                f"got {error_threshold}"
            )
        return Stage(
            name=name,
            kind=kind,
            flows=flows,
            challenger=challenger,
            incumbent=incumbent,
            dynamics=dynamics,
            ticks=ticks,
            epsilon=epsilon,
            mutation=mutation,
            inertia=inertia,
            init_share=init_share,
            error_threshold=error_threshold,
        )
    searches = _get_int(entry, "searches", 1, where)
    if searches < 1:
        raise SpecError(f"{where}.searches: must be >= 1, got {searches}")
    seed_stride = _get_int(entry, "seed_stride", 7919, where)
    if seed_stride < 1:
        raise SpecError(f"{where}.seed_stride: must be >= 1")
    return Stage(
        name=name,
        kind=kind,
        flows=flows,
        challenger=challenger,
        incumbent=incumbent,
        searches=searches,
        seed_stride=seed_stride,
    )


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
    name = name.strip()
    description = _get_str(data, "description", "", source)

    link_table = _get_table(data, "link", source)
    for key in link_table:
        if key not in (
            "bandwidth_mbps",
            "rtt_ms",
            "buffer_bdp",
            "mss",
            "aqm",
            "ecn",
            "capacity_trace",
        ):
            raise SpecError(f"{source}: [link] has unknown key {key!r}")
    ecn = link_table.get("ecn")
    if ecn is not None and not isinstance(ecn, bool):
        raise SpecError(
            f"{source}: link.ecn: expected a boolean, got {ecn!r}"
        )
    try:
        link = LinkConfig.from_mbps_ms(
            _get_number(
                link_table, "bandwidth_mbps", 100.0, f"{source}: link"
            ),
            _get_number(link_table, "rtt_ms", 40.0, f"{source}: link"),
            _get_number(link_table, "buffer_bdp", 5.0, f"{source}: link"),
            mss=_get_int(link_table, "mss", 1500, f"{source}: link"),
            aqm=parse_aqm(link_table.get("aqm"), ecn=ecn),
            capacity_trace=parse_capacity_trace(
                link_table.get("capacity_trace")
            ),
        )
    except ValueError as exc:
        raise SpecError(f"{source}: [link] {exc}") from None

    defaults = _get_table(data, "defaults", source)
    for key in defaults:
        if key not in (
            "duration",
            "backend",
            "trials",
            "seed",
            "loss_mode",
            "mix",
        ):
            raise SpecError(f"{source}: [defaults] has unknown key {key!r}")
    where = f"{source}: defaults"
    duration = _get_number(defaults, "duration", 60.0, where)
    if duration <= 0:
        raise SpecError(f"{where}.duration: must be positive")
    backend = _check_backend(
        _get_str(defaults, "backend", "fluid", where), f"{where}.backend"
    )
    trials = _get_int(defaults, "trials", 1, where)
    if trials < 1:
        raise SpecError(f"{where}.trials: must be >= 1, got {trials}")
    seed = _get_int(defaults, "seed", 0, where)
    loss_mode = _get_str(defaults, "loss_mode", "proportional", where)
    mix = (
        parse_mix(defaults["mix"], f"{where}.mix")
        if "mix" in defaults
        else None
    )

    expand = _get_str(data, "expand", "grid", source)
    if expand not in EXPAND_MODES:
        raise SpecError(
            f"{source}: expand must be one of {', '.join(EXPAND_MODES)}, "
            f"got {expand!r}"
        )

    raw_axes = data.get("axes")
    if not isinstance(raw_axes, (list, tuple)) or not raw_axes:
        raise SpecError(
            f"{source}: no axes declared — add at least one [[axes]] "
            "table with 'name' and 'values'"
        )
    axes = tuple(
        _parse_axis(entry, i, source) for i, entry in enumerate(raw_axes)
    )
    seen_axes = set()
    for axis in axes:
        if axis.name in seen_axes:
            raise SpecError(
                f"{source}: axis {axis.name!r} is declared twice"
            )
        seen_axes.add(axis.name)
    if expand == "zip":
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
    seen_stages = set()
    for stage in stages:
        if stage.name in seen_stages:
            raise SpecError(
                f"{source}: stage {stage.name!r} is declared twice"
            )
        seen_stages.add(stage.name)

    has_sweep = any(stage.kind == "sweep" for stage in stages)
    has_adaptive = any(stage.kind == "adaptive" for stage in stages)
    has_population = any(stage.kind == "population" for stage in stages)
    if has_sweep and mix is None and "mix" not in seen_axes:
        raise SpecError(
            f"{source}: sweep stages need a flow mix — set "
            "[defaults] mix or declare a mix axis"
        )
    if (has_adaptive or has_population) and "mix" in seen_axes:
        kind = "adaptive" if has_adaptive else "population"
        raise SpecError(
            f"{source}: {kind} stages derive the mix split themselves; "
            "remove the mix axis or use a sweep stage"
        )
    if not has_population:
        swept_population = seen_axes & set(POPULATION_AXES)
        if swept_population:
            raise SpecError(
                f"{source}: axis "
                f"{', '.join(sorted(swept_population))!s} only applies "
                "to population stages — add one or drop the axis"
            )

    raw_metrics = data.get("metrics", {})
    if isinstance(raw_metrics, dict):
        raw_metrics = raw_metrics.get("columns", None)
    if raw_metrics is None:
        metrics: Tuple[str, ...] = (
            _default_metrics(mix, axes) if has_sweep else ()
        )
    else:
        if not isinstance(raw_metrics, (list, tuple)):
            raise SpecError(
                f"{source}: metrics.columns must be a list of metric names"
            )
        metrics = tuple(
            _check_metric(m, f"{source}: metrics") for m in raw_metrics
        )

    output = _get_table(data, "output", source)
    csv_name = _get_str(output, "csv", "results.csv", f"{source}: output")
    if "/" in csv_name or "\\" in csv_name or not csv_name:
        raise SpecError(
            f"{source}: output.csv must be a bare file name, "
            f"got {csv_name!r}"
        )
    jsonl_name: Optional[str] = None
    if output.get("jsonl") is not None:
        jsonl_name = _get_str(output, "jsonl", "", f"{source}: output")
        if "/" in jsonl_name or "\\" in jsonl_name or not jsonl_name:
            raise SpecError(
                f"{source}: output.jsonl must be a bare file name, "
                f"got {jsonl_name!r}"
            )

    return CampaignSpec(
        name=name,
        description=description,
        link=link,
        duration=duration,
        backend=backend,
        trials=trials,
        seed=seed,
        loss_mode=loss_mode,
        mix=mix,
        expand=expand,
        axes=axes,
        stages=stages,
        metrics=metrics,
        csv_name=csv_name,
        jsonl_name=jsonl_name,
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
