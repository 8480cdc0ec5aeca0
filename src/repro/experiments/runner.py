"""Scenario runner: one interface over both simulator substrates.

The experiment harness asks one question over and over: *given a link and
a mix of flows, what per-flow throughput does each CCA class get?*  This
module answers it against either backend — ``backend="packet"`` for the
high-fidelity discrete-event simulator (1–2 flow validation figures) or
``backend="fluid"`` for the fluid model (large NE sweeps).

The request is a :class:`~repro.exec.fingerprint.ScenarioPoint`, one
simulation at one seed — :func:`run_mix_batch` executes them,
:func:`run_mix` is the keyword convenience that builds one.  The fluid
model has two bitwise-identical implementations, the scalar per-flow
loop and the vectorized batch substrate; which one runs is decided
here, per group of points, by :func:`runs_vectorized`.

Repetition lives here alone: :func:`seed_points` expands a point into
its seed points and :func:`seed_means` averages their results back.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.exec.fingerprint import ScenarioPoint
from repro.scenario import BACKENDS, expand_mix
from repro.scenario.spec import BottleneckSpec
from repro.util.rounds import PointRounds, T

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.engine import Engine
    from repro.obs.bus import Telemetry

__all__ = [
    "BACKENDS",
    "VEC_MIN_ROWS",
    "ScenarioResult",
    "class_label",
    "distribution_payoff_fn",
    "expand_mix",
    "group_payoff_fn",
    "mean_result",
    "point_rounds",
    "run_mix",
    "run_mix_batch",
    "run_trials",
    "runs_vectorized",
    "seed_means",
    "seed_points",
    "spaced_seed",
]

#: Flow rows (flows, summed over a group of fluid requests)
#: from which one vectorized batch beats the scalar loop.  Measured,
#: not tuned: the crossover sits at the same row count for every
#: flows-per-point x points shape tried (docs/PERFORMANCE.md,
#: "Scalar or vectorized").
VEC_MIN_ROWS = 64


def runs_vectorized(
    points: Sequence[ScenarioPoint], obs: Optional["Telemetry"] = None
) -> bool:
    """Whether the fluid points among ``points`` run as one vectorized
    batch — the one substrate decision.

    The vectorized substrate pays a fixed numpy cost per tick, so it
    wins only once the batch is :data:`VEC_MIN_ROWS` flow rows wide (one
    row per flow).  Instrumented runs — a telemetry bus handed
    in as ``obs`` or a live invariant checker — always take the scalar
    loop: telemetry and the law-object checks exist only there.  Both
    paths produce the same bits, so this decides wall time only.
    """
    from repro.check import resolve as resolve_check

    if obs is not None or resolve_check(None) is not None:
        return False
    rows = sum(point.rows for point in points if point.backend == "fluid")
    return rows >= VEC_MIN_ROWS


def class_label(cc: str, rtt: Optional[float] = None) -> str:
    """The :class:`ScenarioResult` key of a mix entry's class: the CCA
    name, or ``cc@rtt`` (e.g. ``cubic@0.03``) at an explicit RTT."""
    return cc if rtt is None else f"{cc}@{float(rtt)!r}"


def spaced_seed(seed: int, k: int) -> int:
    """A collision-free per-point base seed for distribution sweeps:
    seed point ``t`` of point ``k`` (:func:`seed_points`) runs at
    ``spaced_seed(seed, k) + t``, and hashing ``(seed, k)`` into a
    2**56 space keeps any realistic trial count disjoint (the old
    ``seed + 1000 * k`` reused jitter once ``trials > 1000``)."""
    digest = hashlib.sha256(f"{seed}:{k}".encode("ascii")).digest()
    return int.from_bytes(digest[:7], "big")


@dataclass(frozen=True)
class ScenarioResult:
    """Per-class scenario aggregates of one run, or a mean of runs.  A
    class is a CCA, or a CCA at an explicit entry RTT (:func:`class_label`).

    Attributes:
        per_flow: Mean per-flow throughput by class (bytes/second).
        aggregate: Total throughput by class (bytes/second).
        mean_queuing_delay: Mean bottleneck queuing delay (seconds).
        loss_rate: Mean per-flow loss rate by class (fraction of sent
            data lost; bytes for the fluid backend, packets for the
            packet backend).
        retransmits: Mean per-flow retransmission count by class.
        drop_rate: Bottleneck drop rate (shared by all flows).
    """

    per_flow: Dict[str, float]
    aggregate: Dict[str, float]
    mean_queuing_delay: float
    loss_rate: Dict[str, float] = field(default_factory=dict)
    retransmits: Dict[str, float] = field(default_factory=dict)
    drop_rate: float = 0.0

    def per_flow_mbps(self, cc: str) -> float:
        """Per-flow mean throughput of class ``cc`` in Mbps."""
        return self.per_flow.get(cc, 0.0) * 8.0 / 1e6

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable form (the result-cache payload)."""
        return {
            name: dict(value) if isinstance(value, dict) else value
            for name, value in vars(self).items()
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioResult":
        """Rebuild a result from :meth:`to_dict` output (exact floats)."""
        return cls(**data)


def run_mix(
    link: BottleneckSpec,
    mix: Sequence[Tuple[Any, ...]],
    duration: float = 60.0,
    warmup: Optional[float] = None,
    backend: str = "fluid",
    trials: int = 1,
    seed: int = 0,
    loss_mode: str = "proportional",
    obs: Optional["Telemetry"] = None,
) -> ScenarioResult:
    """Run a flow mix and return per-class mean throughputs.

    The keyword convenience over :func:`run_mix_batch`: builds the one
    :class:`~repro.exec.fingerprint.ScenarioPoint` (which validates the
    arguments) and runs its ``trials`` seed points, uncached.

    Args:
        link: Bottleneck configuration.
        mix: Entries ``(cc, count)`` or ``(cc, count, rtt_seconds)``,
            e.g. ``[("cubic", 5), ("bbr", 5)]``.  Zero counts are
            allowed and skipped; an entry with an RTT runs its flows at
            that base RTT and reports them as class ``cc@rtt``
            (:func:`class_label`).
        duration: Flow lifetime per run (the paper uses 120 s).
        warmup: Measurement exclusion window; defaults to ``duration/6``
            to skip the startup transient.
        backend: ``"packet"`` or ``"fluid"``.
        trials: Runs to average; run ``t`` uses seed ``seed + t``.
        seed: Base RNG seed (fluid backend jitter / loss lottery).
        loss_mode: Fluid-backend CUBIC synchronization mode.
        obs: Optional telemetry bus that records the run (every
            seed; None, the default, records nothing).
    """
    point = ScenarioPoint(
        link=link,
        mix=tuple(mix),
        duration=duration,
        warmup=warmup,
        backend=backend,
        seed=seed,
        loss_mode=loss_mode,
    )
    return mean_result(run_mix_batch(seed_points([point], trials), obs=obs))


def run_mix_batch(
    points: Sequence[ScenarioPoint], obs: Optional["Telemetry"] = None
) -> List[ScenarioResult]:
    """Run scenario points — one substrate run each, at the point's
    seed — pooling the fluid ones; results come back in point order.

    When the fluid points together are wide enough
    (:func:`runs_vectorized`), all of them are pooled into a *single*
    vectorized simulation — the execution engine's chunked dispatch
    relies on this to amortize tick overhead across whole sweeps.
    Otherwise, and for packet points, each point is one scalar
    substrate run.  The vectorized substrate is batch-invariant bit for
    bit, so the results are identical either way.  ``obs``, when given,
    records every point.
    """
    from repro.check import resolve as resolve_check

    check = resolve_check(None)
    pooled = None
    if runs_vectorized(points, obs):
        from repro.fluidsim.vec import BatchPoint, run_fluid_vec_batch

        batch = [
            BatchPoint(**_fluid_trial(point))
            for point in points
            if point.backend == "fluid"
        ]
        pooled = iter(run_fluid_vec_batch(batch))
    results = []
    for point in points:
        if pooled is not None and point.backend == "fluid":
            run = next(pooled)
        else:
            if check is not None:
                # What a violation raised inside this point reports.
                check.set_context(
                    fingerprint=point.fingerprint(),
                    backend=point.backend,
                    mix=[list(entry) for entry in point.mix],
                    duration=point.duration,
                    warmup=point.warmup,
                    seed=point.seed,
                )
            run = _run_trial(point, obs)
        results.append(_one_run(point.mix, run))
    return results


def _fluid_trial(point: ScenarioPoint) -> Dict[str, Any]:
    """A fluid point as :func:`run_fluid` arguments (equally
    :class:`BatchPoint` fields); it runs with the point's seed on
    either implementation."""
    from repro.fluidsim.spec import FluidSpec

    return {
        "link": point.link,
        "flows": [
            FluidSpec(cc=cc, rtt=rtt) for cc, rtt in expand_mix(point.mix)
        ],
        "duration": point.duration,
        "warmup": point.warmup,
        "loss_mode": point.loss_mode,
        "seed": point.seed,
        "start_jitter": min(1.0, point.duration / 30.0),
    }


def _run_trial(point: ScenarioPoint, obs: Optional["Telemetry"]) -> Any:
    """One point on a scalar substrate, imported here: a request loads
    only the substrate it runs on."""
    if point.backend == "packet":
        from repro.sim.network import FlowSpec, run_dumbbell

        specs = [
            FlowSpec(cc=cc, rtt=rtt) for cc, rtt in expand_mix(point.mix)
        ]
        return run_dumbbell(
            point.link,
            specs,
            duration=point.duration,
            warmup=point.warmup,
            obs=obs,
        )
    from repro.fluidsim.core import run_fluid

    return run_fluid(obs=obs, **_fluid_trial(point))


def _one_run(mix: Sequence[Tuple[Any, ...]], run: Any) -> ScenarioResult:
    """One simulation's result, its values as :func:`_mean` reads them
    (a sum is never ``-0.0``), so that it is the mean of its one seed.

    The run's flows come back in mix order; entries with one
    :func:`class_label` are one class.
    """
    classes: Dict[str, List[Any]] = {}  # class -> its flows
    flows = iter(run.flows)
    for cc, count, *rtt in mix:
        classes.setdefault(class_label(cc, *rtt), []).extend(
            next(flows) for _ in range(count)
        )
    totals = {
        label: sum(f.throughput for f in members)
        for label, members in classes.items()
    }
    return ScenarioResult(
        per_flow={c: totals[c] / len(m) for c, m in classes.items()},
        aggregate=totals,
        mean_queuing_delay=_mean([run.mean_queuing_delay]),
        loss_rate={
            c: _mean([f.loss_rate for f in m]) for c, m in classes.items()
        },
        retransmits={
            c: _mean([f.retransmits for f in m]) for c, m in classes.items()
        },
        drop_rate=_mean([run.drop_rate]),
    )


def mean_result(results: Sequence[ScenarioResult]) -> ScenarioResult:
    """The field-by-field :func:`_mean` of ``results`` (one point's
    seeds, in seed order); one result is its own mean."""
    if len(results) == 1:
        return results[0]
    fields = {}
    for name, first in vars(results[0]).items():
        if isinstance(first, dict):
            fields[name] = {
                c: _mean([getattr(r, name)[c] for r in results])
                for c in first
            }
        else:
            fields[name] = _mean([getattr(r, name) for r in results])
    return ScenarioResult(**fields)


def _mean(values: List[Any]) -> Any:
    """``statistics.mean(values)``, where one value is its own mean.

    With one seed, and one flow per class, that is almost every call,
    and ``mean`` spends ~10 µs on it in exact fractions.  ``+ 0``
    returns what ``mean`` does: the same type (an int stays int), NaN
    and inf as they are, and ``-0.0`` as ``0.0``.
    """
    if len(values) == 1:
        return values[0] + 0
    # Imported here: ``statistics`` loads ``decimal`` and ``fractions``.
    from statistics import mean

    return mean(values)


def seed_points(
    points: Sequence[ScenarioPoint], trials: int
) -> List[ScenarioPoint]:
    """Each of ``points`` at its seeds ``seed … seed + trials − 1``, in
    point order; :func:`seed_means` averages their results back."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return [
        replace(point, seed=point.seed + t) if t else point
        for point in points
        for t in range(trials)
    ]


def seed_means(results: Sequence[Any], trials: int) -> List[ScenarioResult]:
    """The results of :func:`seed_points`, one mean per point."""
    return [
        mean_result(results[i : i + trials])
        for i in range(0, len(results), trials)
    ]


def run_trials(
    points: Sequence[ScenarioPoint],
    trials: int,
    engine: Optional["Engine"] = None,
) -> List[ScenarioResult]:
    """Each of ``points`` averaged over ``trials`` seeds, all seeds one
    batch on ``engine`` (None: the process default)."""
    from repro.exec.engine import resolve as resolve_engine

    batch = seed_points(points, trials)
    return seed_means(resolve_engine(engine).run_points(batch), trials)


def _payoff_fn(
    point_of: Callable[[Tuple[int, ...]], ScenarioPoint],
    incumbent: str,
    challenger: str,
    rtts: Sequence[Optional[float]],
    engine: Optional["Engine"],
    trials: int,
):
    """The one game evaluator: ``payoff(*states)`` for
    :class:`repro.core.game.GroupGame`, a round of states being one
    ``run_points`` batch of the ``trials`` seed points of each
    ``point_of(state)``, read off their mean.

    Group ``g``'s payoff pair is read from the result classes of
    (``incumbent``, ``challenger``) at ``rtts[g]`` — lower-case, as
    :class:`ScenarioPoint` normalises the mix.  The engine (explicit,
    installed default, or the sequential fallback) is resolved per
    round: identical states are reused across games when a result cache
    is configured, and a round's misses fan out over ``--jobs``
    workers.  The call's two halves are its attributes ``points``
    (states to scenario points) and ``read`` (their results to
    payoffs), for :func:`point_rounds`.
    """
    labels = [
        [class_label(cc.lower(), rtt) for cc in (incumbent, challenger)]
        for rtt in rtts
    ]

    def points(states: Sequence[Tuple[int, ...]]) -> List[ScenarioPoint]:
        return seed_points([point_of(state) for state in states], trials)

    def read(results: Sequence[ScenarioResult]):
        return [
            [
                tuple(result.per_flow.get(c, 0.0) for c in pair)
                for pair in labels
            ]
            for result in seed_means(results, trials)
        ]

    def payoff(*states: Tuple[int, ...]):
        from repro.exec.engine import resolve as resolve_engine

        return read(resolve_engine(engine).run_points(points(states)))

    payoff.points, payoff.read = points, read
    return payoff


def point_rounds(
    game: Any, rounds: Generator[Any, None, T]
) -> PointRounds[T]:
    """``rounds`` — a generator of the states ``game`` is about to be
    asked for (:func:`repro.core.game.bisect_rounds`) — as a round
    generator of scenario points: the states not known yet are yielded
    as points, and their results fill ``game.known`` before ``rounds``
    resumes.  ``game.payoff`` comes from a builder below.
    """
    payoff = game.payoff
    try:
        while True:
            unknown = game.unknown(next(rounds))
            if unknown:
                results = yield payoff.points(unknown)
                game.known.update(zip(unknown, payoff.read(results)))
    except StopIteration as stop:
        return stop.value


def distribution_payoff_fn(
    link: BottleneckSpec,
    n_flows: int,
    challenger: str = "bbr",
    incumbent: str = "cubic",
    duration: float = 60.0,
    backend: str = "fluid",
    trials: int = 1,
    seed: int = 0,
    engine: Optional["Engine"] = None,
    loss_mode: str = "proportional",
):
    """Payoffs of the same-RTT game (§4.1, §4.4): a one-group
    :class:`repro.core.game.GroupGame` over ``n_flows`` flows.

    State ``(k,)`` is the scenario point ``((incumbent, n_flows − k),
    (challenger, k))`` at ``spaced_seed(seed, k)``; its payoff pair is
    the (incumbent, challenger) per-flow throughput.
    """

    def point_of(state: Tuple[int, ...]) -> ScenarioPoint:
        (k,) = state
        return ScenarioPoint(
            link=link,
            mix=((incumbent, n_flows - k), (challenger, k)),
            duration=duration,
            backend=backend,
            seed=spaced_seed(seed, k),
            loss_mode=loss_mode,
        )

    return _payoff_fn(
        point_of, incumbent, challenger, [None], engine, trials
    )


def group_payoff_fn(
    link: BottleneckSpec,
    group_rtts: Sequence[float],
    group_sizes: Sequence[int],
    challenger: str = "bbr",
    incumbent: str = "cubic",
    duration: float = 60.0,
    trials: int = 1,
    seed: int = 0,
    engine: Optional["Engine"] = None,
):
    """Payoffs of the multi-RTT game (§4.5): one group per base RTT.

    A state is one fluid scenario point — per group, a challenger entry
    then an incumbent entry at the group's RTT, all at ``seed`` — and
    its payoffs the per-group (incumbent, challenger) per-flow
    throughput pairs.
    """
    if len(group_rtts) != len(group_sizes):
        raise ValueError("group_rtts and group_sizes must align")
    if len(set(group_rtts)) != len(group_rtts):
        # Groups are told apart by RTT in the result's class labels.
        raise ValueError(f"group_rtts must be distinct, got {group_rtts}")

    def point_of(state: Tuple[int, ...]) -> ScenarioPoint:
        mix = []
        for k, rtt, size in zip(state, group_rtts, group_sizes):
            mix += [(challenger, k, rtt), (incumbent, size - k, rtt)]
        return ScenarioPoint(
            link=link,
            mix=tuple(mix),
            duration=duration,
            seed=seed,
        )

    return _payoff_fn(
        point_of, incumbent, challenger, group_rtts, engine, trials
    )
