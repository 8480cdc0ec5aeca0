"""The campaign vocabulary, declared once: parameters and stage kinds.

* :data:`PARAMS` — *what can a spec set or sweep?*  One :class:`Param`
  row per scenario parameter: type, range, validator, default, and
  where it lands.  The ``[link]`` / ``[defaults]`` parsers, the axis
  parser and the per-unit resolution iterate it, so a parameter cannot
  exist without a validator.
* :data:`KINDS` — *what is a stage?*  One :class:`StageKind` per stage
  type: its options (:class:`Param` rows too), the names it consumes,
  how many units a combination yields, and ``run`` — how its units
  execute and what rows they produce.

:data:`AXES` (every sweepable name) is derived from both.  The module
imports no simulator: validators that need one (CCA names, population
dynamics) import it when first called.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.trace import resolve as resolve_tracer
from repro.obs.trace import span
from repro.scenario import (
    LOSS_MODES,
    canonical_backend,
    parse_aqm,
    parse_capacity_trace,
)
from repro.util.rounds import PointRounds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.expand import Unit
    from repro.campaign.spec import CampaignSpec
    from repro.exec.engine import Engine

ERROR_MAP_NAME = "error_map.json"

Mix = Tuple[Tuple[str, int], ...]
Rows = Tuple[Dict[str, Any], ...]


class SpecError(ValueError):
    """A campaign spec failed validation; the message is one line."""


#: A validator: ``(value, where) -> the value to keep``, raising
#: SpecError with ``where`` (file + field) in front.
Check = Callable[[Any, str], Any]


def check_cca(name: str, where: str) -> str:
    from repro.cc import available_algorithms

    key = str(name).lower()
    available = list(available_algorithms())
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
        key = check_cca(cc, where)
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


def _accepted_by(parser: Callable[[Any], Any]) -> Check:
    """Valid when ``parser`` takes it; the *authored* spelling is kept
    (unit ids and spec fingerprints hash it, so journals written under
    a former spelling such as ``fluid-vec`` stay resumable)."""

    def check(value: Any, where: str) -> Any:
        try:
            parser(value)
        except ValueError as exc:
            raise SpecError(f"{where}: {exc}") from None
        return value

    return check


def one_of(label: str, choices: Any) -> Check:
    """Valid when among ``choices`` — a sequence, or a function
    returning one for registries that cost an import."""

    def check(value: Any, where: str) -> Any:
        allowed = choices() if callable(choices) else choices
        if value not in allowed:
            raise SpecError(
                f"{where}: {label} must be one of "
                f"{', '.join(allowed)}, got {value!r}"
            )
        return value

    return check


def _dynamics() -> Sequence[str]:
    from repro.population.dynamics import DYNAMICS

    return DYNAMICS


# -- the parameter table -----------------------------------------------------

#: Numeric ranges: how errors and docs spell one, and its test.
POSITIVE = ("> 0", lambda v: v > 0)
AT_LEAST_ONE = (">= 1", lambda v: v >= 1)
AT_LEAST_TWO = (">= 2", lambda v: v >= 2)
SHARE = ("in [0, 1]", lambda v: 0 <= v <= 1)
RATE = ("in [0, 1)", lambda v: 0 <= v < 1)
FRACTION = ("in (0, 1]", lambda v: 0 < v <= 1)

#: ``type`` -> (accepted Python types, how errors name them).
_EXPECTED = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    str: (str, "a string"),
    bool: (bool, "a boolean"),
}


@dataclass(frozen=True)
class Param:
    """One settable value: a scenario parameter or a stage option.

    ``lands``: ``"link"`` (geometry), ``"scenario"`` (AQM / ECN /
    capacity trace on the link), ``"point"`` (the scenario point), or
    ``"option"`` (a stage's own).  ``type=None`` leaves all checking to
    ``check`` (the flow mix).  ``table`` also admits the canonical
    table form where the parameter is *set* (``[link] aqm`` as
    ``to_dict`` writes it), never as an axis value.
    """

    name: str
    type: Optional[type]
    default: Any
    lands: str = "option"
    valid: Optional[Tuple[str, Callable[[Any], bool]]] = None
    check: Optional[Check] = None
    table: bool = False

    def parse(self, value: Any, where: str, authored: bool = False) -> Any:
        """Validate one value; ``where`` names the file and field.

        ``authored`` (axis values) keeps a number as written — unit
        links, so cache fingerprints, are built from it, and an integer
        ``2`` must stay ``2`` as in the hand-coded figure sweeps.
        Values set in a table are coerced to ``type``.
        """
        as_table = self.table and not authored and isinstance(value, Mapping)
        if self.type is not None and not as_table:
            accepted, expected = _EXPECTED[self.type]
            if not isinstance(value, accepted) or (
                isinstance(value, bool) and self.type is not bool
            ):
                raise SpecError(
                    f"{where}: expected {expected}, got {value!r}"
                )
            if not authored:
                value = self.type(value)
        if self.valid is not None and not self.valid[1](value):
            raise SpecError(
                f"{where}: need {self.name} {self.valid[0]}, got {value!r}"
            )
        return value if self.check is None else self.check(value, where)


PARAMS: Tuple[Param, ...] = (
    Param("bandwidth_mbps", float, 100.0, "link", POSITIVE),
    Param("rtt_ms", float, 40.0, "link", POSITIVE),
    Param("buffer_bdp", float, 5.0, "link", POSITIVE),
    Param("mss", int, 1500, "link", AT_LEAST_ONE),
    Param(
        "aqm", str, None, "scenario",
        check=_accepted_by(parse_aqm), table=True,
    ),
    Param("ecn", bool, None, "scenario"),
    Param(
        "capacity_trace", str, None, "scenario",
        check=_accepted_by(parse_capacity_trace), table=True,
    ),
    Param("duration", float, 60.0, "point", POSITIVE),
    Param(
        "backend", str, "fluid", "point",
        check=_accepted_by(canonical_backend),
    ),
    Param("trials", int, 1, "point", AT_LEAST_ONE),
    Param("seed", int, 0, "point"),
    Param(
        "loss_mode", str, "proportional", "point",
        check=one_of("loss_mode", LOSS_MODES),
    ),
    Param("mix", None, None, "point", check=parse_mix),
)

#: The ``[link]`` keys; the ``[defaults]`` keys; those but ``mix`` —
#: the scalars every unit resolves and every unit id hashes.
LINK_PARAMS = tuple(p for p in PARAMS if p.lands != "point")
DEFAULT_PARAMS = tuple(p for p in PARAMS if p.lands == "point")
POINT_PARAMS = tuple(p for p in DEFAULT_PARAMS if p.name != "mix")


def parse_table(
    table: Mapping[str, Any], params: Sequence[Param], where: str
) -> Dict[str, Any]:
    """Each of ``params`` validated from ``table``: the value set
    there, else the default (an unset optional parameter stays None)."""
    values: Dict[str, Any] = {}
    for param in params:
        value = table.get(param.name)
        if value is None:
            value = param.default
        if value is not None:
            value = param.parse(value, f"{where}.{param.name}")
        values[param.name] = value
    return values


# -- how each kind's units run -----------------------------------------------


class StageRun(NamedTuple):
    """What a stage's pending units run against.  ``artifacts``: the
    campaign directory, for files kinds write beside the journal; None
    when the caller keeps none."""

    spec: "CampaignSpec"
    engine: "Engine"
    artifacts: Optional[Path]


#: ``(unit, rows, wall_s)`` as units finish — in an order that depends
#: on the units, never on ``engine.jobs``.
Outcomes = Iterator[Tuple["Unit", Rows, float]]

#: Derived metrics: name -> (takes a ``:<cc>`` argument, evaluator of
#: a ScenarioResult).
METRICS: Dict[str, Tuple[bool, Callable[[Any, str], Any]]] = {
    "per_flow_mbps": (True, lambda r, cc: r.per_flow_mbps(cc)),
    "aggregate_mbps": (
        True, lambda r, cc: r.aggregate.get(cc, 0.0) * 8.0 / 1e6
    ),
    "loss_rate": (True, lambda r, cc: r.loss_rate.get(cc, 0.0)),
    "retransmits": (True, lambda r, cc: r.retransmits.get(cc, 0.0)),
    "queuing_delay_ms": (False, lambda r, cc: r.mean_queuing_delay * 1e3),
    "drop_rate": (False, lambda r, cc: r.drop_rate),
}


def _sweep_rows(spec: "CampaignSpec", unit: "Unit", result: Any) -> Rows:
    """One CSV row for a sweep unit: swept values then metric columns."""
    row = unit.combo_dict()
    for metric in spec.metrics:
        base, _sep, cc = metric.partition(":")
        row[metric] = METRICS[base][1](result, cc)
    return (row,)


def _run_sweep(run: StageRun, units: List["Unit"]) -> Outcomes:
    """Sweep units are scenario points: one ``Engine.iter_points``
    batch (parallel fan-out, content-addressed cache)."""
    points = [unit.to_point() for unit in units]
    for position, result, wall in run.engine.iter_points(points):
        unit = units[position]
        yield unit, _sweep_rows(run.spec, unit, result), wall


@dataclass
class _Live:
    """A unit mid-computation: its last request and its wall so far."""

    unit: "Unit"
    rounds: PointRounds[Rows]
    request: Sequence[Any] = ()
    wall_s: float = 0.0


def _in_rounds(
    rounds_of: Callable[["Unit", StageRun], PointRounds[Rows]],
) -> Callable[[StageRun, List["Unit"]], Outcomes]:
    """``run`` for kinds whose units are independent computations that
    ask for their engine work in rounds (:mod:`repro.util.rounds`) —
    the campaign layer's one way to run concurrent work.

    The live units advance in lock step: each is resumed, in unit
    order, with the results of its last request, and yielded the moment
    it returns; what the others ask for next is *one*
    ``Engine.run_points`` batch under a ``round`` span — the engine
    pools it onto the vectorized substrate and its ``jobs`` workers —
    and no span is open while a unit is suspended.  ``wall_s`` is the
    time of a unit's own advances plus its share of every batch it took
    part in (batch wall × its points / the batch's), so a stage's walls
    sum to its wall.  Results are those of running each unit alone:
    units seed their own simulations, the substrate is batch-invariant.
    """

    def run_units(run: StageRun, units: List["Unit"]) -> Outcomes:
        tracer = resolve_tracer(None)
        live = [_Live(unit, rounds_of(unit, run)) for unit in units]
        answers: List[Any] = [None] * len(live)
        number = 0
        while True:
            asking = []
            for entry, answer in zip(live, answers):
                start = perf_counter()
                try:
                    entry.request = entry.rounds.send(answer)
                except StopIteration as stop:
                    wall = entry.wall_s + perf_counter() - start
                    yield entry.unit, stop.value, wall
                else:
                    entry.wall_s += perf_counter() - start
                    asking.append(entry)
            live = asking
            if not live:
                return
            batch = [point for entry in live for point in entry.request]
            start = perf_counter()
            with span(
                tracer,
                "round",
                "campaign",
                round=number,
                live=len(live),
                points=len(batch),
                rows=sum(point.rows for point in batch),
            ):
                results = run.engine.run_points(batch)
            wall = perf_counter() - start
            answers, offset = [], 0
            for entry in live:
                end = offset + len(entry.request)
                answers.append(results[offset:end])
                entry.wall_s += wall * (end - offset) / len(batch)
                offset = end
            number += 1

    return run_units


def _adaptive_rounds(unit: "Unit", run: StageRun) -> PointRounds[Rows]:
    """One NE bisection: rows per equilibrium found at this combination.

    Seeding matches the hand-coded figure-9 loop exactly
    (``seed + stride × search`` into ``distribution_payoff_fn``), so
    a campaign and the figure generator hit the same cache entries.
    """
    from repro.core.game import GroupGame, bisect_rounds
    from repro.core.nash import predict_nash
    from repro.experiments.runner import distribution_payoff_fn, point_rounds

    scenario = unit.scenario()
    scenario["seed"] += unit.seed_stride * unit.search
    payoff = distribution_payoff_fn(
        unit.link,
        unit.flows,
        challenger=unit.challenger,
        incumbent=unit.incumbent,
        engine=run.engine,
        **scenario,
    )
    game = GroupGame([unit.flows], payoff)
    equilibria, _evaluated = yield from point_rounds(
        game, bisect_rounds(game)
    )
    # The analytic Nash-region bounds (Eq. 25) ride along as model
    # columns; they describe the CUBIC-vs-BBR game, the one the paper
    # (and the bundled specs) study.
    prediction = predict_nash(unit.link, unit.flows)
    rows: List[Dict[str, Any]] = []
    for k in equilibria:
        row = unit.combo_dict()
        row["search"] = unit.search
        row["ne_challenger"] = k
        row["ne_incumbent"] = unit.flows - k
        row["model_incumbent_sync"] = prediction.n_cubic_sync
        row["model_incumbent_desync"] = prediction.n_cubic_desync
        rows.append(row)
    return tuple(rows)


def _merge_error_map(path: Path, error_map: Any) -> None:
    """Fold one unit's calibration entries into the campaign artifact."""
    if not error_map.entries:
        return
    from repro.population import ErrorMap

    merged = ErrorMap.load(str(path)) if path.exists() else ErrorMap()
    merged.merge(error_map)
    merged.save(str(path))


def _population_rounds(unit: "Unit", run: StageRun) -> PointRounds[Rows]:
    """One adoption trajectory: a single CSV row, and the unit's
    calibration entries merged into the campaign's ``error_map.json``
    — before the unit is journaled, so an interrupted campaign keeps
    the calibrations it already paid for.

    The unit's link and flow count define a one-cell population; the
    trajectory is fully determined by the unit's resolved parameters
    (the oracle consumes no trajectory randomness), so journal replay
    and re-execution produce identical rows.
    """
    from repro.population import CellSpec, DynamicsConfig, TieredOracle
    from repro.population.run import population_rounds

    cell = CellSpec(link=unit.link, n_flows=unit.flows, label=unit.stage)
    oracle = TieredOracle(
        engine=run.engine,
        error_threshold=unit.error_threshold,
        duration=unit.duration,
        trials=unit.trials,
        seed=unit.seed,
    )
    result = yield from population_rounds(
        [cell],
        oracle,
        DynamicsConfig(
            name=unit.dynamics,
            epsilon=unit.epsilon,
            mutation=unit.mutation,
            inertia=unit.inertia,
        ),
        unit.ticks,
        seed=unit.seed,
        strategies=(unit.incumbent, unit.challenger),
        init_share=unit.init_share,
    )
    if run.artifacts is not None:
        _merge_error_map(run.artifacts / ERROR_MAP_NAME, result.error_map)
    ne = result.ne[0]
    row = unit.combo_dict()
    row.setdefault("dynamics", unit.dynamics)
    row["flows"] = unit.flows
    row["challenger"] = unit.challenger
    row["final_challenger_share"] = result.final_share(unit.challenger)
    row["model_share_sync"] = ne["share_sync"] if ne else ""
    row["model_share_desync"] = ne["share_desync"] if ne else ""
    row["converged"] = result.converged
    row["oracle_tier0"] = result.oracle["tier0"]
    row["oracle_tier1"] = result.oracle["tier1"]
    row["max_rel_error"] = result.error_map.max_rel_error()
    return (row,)


# -- the stage-kind table ----------------------------------------------------


@dataclass(frozen=True)
class StageKind:
    """What one ``[[stages]] type`` (its key in :data:`KINDS`) means.

    Attributes:
        params: The names whose value changes this kind's units, so an
            axis may sweep them: scenario parameters and the kind's own
            axis-overridable options.  A kind without ``mix`` derives
            the split itself.
        run: Executes a stage's pending units.
        options: The stage's own settings, in ``to_dict`` order.
        replicas: The option counting the units one combination
            yields (each numbered by ``Unit.search``); None means one.
    """

    params: FrozenSet[str]
    run: Callable[[StageRun, List["Unit"]], Outcomes]
    options: Tuple[Param, ...] = ()
    replicas: Optional[str] = None

    def unit_params(self, unit: "Unit") -> Dict[str, Any]:
        """The kind-specific part of ``Unit.params()``."""
        params = {k: v for k, v in unit.options if k != self.replicas}
        if self.replicas:
            params["search"] = unit.search
        if "mix" in self.params:
            params["mix"] = unit.mix
        return params


#: What every kind consumes: the link, and how long / how often / from
#: which seed it is simulated.
_COMMON = frozenset(
    ("bandwidth_mbps", "rtt_ms", "buffer_bdp", "aqm", "ecn", "capacity_trace")
    + ("duration", "trials", "seed")
)
#: The two-strategy game both searching kinds play.
_GAME = (
    Param("flows", int, 0, valid=AT_LEAST_TWO),
    Param("challenger", str, "bbr", check=check_cca),
    Param("incumbent", str, "cubic", check=check_cca),
)

KINDS: Dict[str, StageKind] = {
    # One scenario point per combination.
    "sweep": StageKind(
        _COMMON | {"backend", "loss_mode", "mix"}, _run_sweep
    ),
    # Per combination, ``searches`` independent bisections of the
    # challenger/incumbent split for the empirical NE, seed-offset by
    # ``seed_stride`` — the spacing figure 9 has always used.
    "adaptive": StageKind(
        _COMMON | {"backend", "loss_mode"},
        _in_rounds(_adaptive_rounds),
        _GAME
        + (
            Param("searches", int, 1, valid=AT_LEAST_ONE),
            Param("seed_stride", int, 7919, valid=AT_LEAST_ONE),
        ),
        replicas="searches",
    ),
    # Per combination, one repro.population adoption trajectory:
    # ``ticks`` steps of ``dynamics``, the tiered payoff oracle (always
    # ``fluid`` / ``proportional``) calibrated at ``error_threshold``.
    "population": StageKind(
        _COMMON | {"dynamics", "epsilon"},
        _in_rounds(_population_rounds),
        _GAME
        + (
            Param(
                "dynamics", str, "replicator",
                check=one_of("dynamics", _dynamics),
            ),
            Param("ticks", int, 60, valid=AT_LEAST_ONE),
            Param("epsilon", float, 0.2, valid=FRACTION),
            Param("mutation", float, 0.0, valid=RATE),
            Param("inertia", float, 0.5, valid=RATE),
            Param("init_share", float, 0.1, valid=SHARE),
            Param("error_threshold", float, 0.1, valid=POSITIVE),
        ),
    ),
}

#: Every sweepable name -> the row that validates its values: what
#: some kind consumes (so not ``mss``), scenario parameters first.
AXES: Dict[str, Param] = {
    row.name: row
    for kind in KINDS.values()
    for row in PARAMS + kind.options
    if row.name in kind.params
}
