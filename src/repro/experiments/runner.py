"""Scenario runner: one interface over both simulator substrates.

The experiment harness asks one question over and over: *given a link and
a mix of flows, what per-flow throughput does each CCA class get?*  This
module answers it against either backend — ``backend="packet"`` for the
high-fidelity discrete-event simulator (1–2 flow validation figures) or
``backend="fluid"`` for the fluid model (large NE sweeps) — with
multi-trial averaging and seeded per-trial jitter, mirroring the
paper's 10-trial methodology.

The request is a :class:`~repro.exec.fingerprint.ScenarioPoint` —
:func:`run_mix_batch` executes them, :func:`run_mix` is the keyword
convenience that builds one.  The fluid model has two bitwise-identical
implementations, the scalar per-flow loop and the vectorized batch
substrate; which one runs is decided here, per group of points, by
:func:`runs_vectorized`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import islice
from statistics import mean
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
from repro.fluidsim.core import FluidSpec, run_fluid
from repro.fluidsim.vec import BatchPoint, run_fluid_vec_batch
from repro.scenario import BACKENDS, expand_mix
from repro.sim.network import FlowSpec, run_dumbbell
from repro.util.config import LinkConfig
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
    "point_rounds",
    "run_mix",
    "run_mix_batch",
    "runs_vectorized",
    "spaced_seed",
]

#: Flow rows (flows x trials, summed over a group of fluid requests)
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
    row per flow per trial).  Instrumented runs — a live telemetry bus
    (``obs`` or the process default) or a live invariant checker —
    always take the scalar loop: per-flow ``cc.*`` events and the
    law-object checks exist only there.  Both paths produce the same
    bits, so this decides wall time only.
    """
    from repro.check import resolve as resolve_check
    from repro.obs.bus import resolve

    if resolve(obs) is not None or resolve_check(None) is not None:
        return False
    rows = sum(point.rows for point in points if point.backend == "fluid")
    return rows >= VEC_MIN_ROWS


def class_label(cc: str, rtt: Optional[float] = None) -> str:
    """The :class:`ScenarioResult` key of a mix entry's class: the CCA
    name, or ``cc@rtt`` (e.g. ``cubic@0.03``) at an explicit RTT."""
    return cc if rtt is None else f"{cc}@{float(rtt)!r}"


def spaced_seed(seed: int, k: int) -> int:
    """A collision-free per-point base seed for distribution sweeps.

    Trial ``t`` of point ``k`` runs with ``spaced_seed(seed, k) + t``.
    The old ``seed + 1000 * k`` spacing collided with the per-trial
    offsets whenever ``trials > 1000`` (or when adjacent ``k`` grids
    were combined), silently reusing jitter between points.  Hashing
    into a 2**56 space keeps any realistic trial count disjoint while
    remaining deterministic in ``(seed, k)``.
    """
    digest = hashlib.sha256(f"{seed}:{k}".encode("ascii")).digest()
    return int.from_bytes(digest[:7], "big")


@dataclass(frozen=True)
class ScenarioResult:
    """Per-class scenario aggregates, averaged over trials.  A class
    is a CCA, or a CCA at an explicit entry RTT (:func:`class_label`).

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
            "per_flow": dict(self.per_flow),
            "aggregate": dict(self.aggregate),
            "mean_queuing_delay": self.mean_queuing_delay,
            "loss_rate": dict(self.loss_rate),
            "retransmits": dict(self.retransmits),
            "drop_rate": self.drop_rate,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioResult":
        """Rebuild a result from :meth:`to_dict` output (exact floats)."""
        return cls(
            per_flow=dict(data["per_flow"]),
            aggregate=dict(data["aggregate"]),
            mean_queuing_delay=data["mean_queuing_delay"],
            loss_rate=dict(data.get("loss_rate", {})),
            retransmits=dict(data.get("retransmits", {})),
            drop_rate=data.get("drop_rate", 0.0),
        )


def run_mix(
    link: LinkConfig,
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
    arguments) and runs it, uncached.

    Args:
        link: Bottleneck configuration.
        mix: Entries ``(cc, count)`` or ``(cc, count, rtt_seconds)``,
            e.g. ``[("cubic", 5), ("bbr", 5)]``.  Zero counts are
            allowed and skipped; an entry with an RTT runs its flows at
            that base RTT and reports them as class ``cc@rtt``
            (:func:`class_label`).
        duration: Flow lifetime per trial (the paper uses 120 s).
        warmup: Measurement exclusion window; defaults to ``duration/6``
            to skip the startup transient.
        backend: ``"packet"`` or ``"fluid"``.  A fluid request whose
            trials are wide enough (:func:`runs_vectorized`) advances
            them as one vectorized batch.
        trials: Trials to average; trial ``t`` uses seed ``seed + t``.
        seed: Base RNG seed (fluid backend jitter / loss lottery).
        loss_mode: Fluid-backend CUBIC synchronization mode.
        obs: Optional telemetry bus threaded into the substrate;
            defaults to the process-wide bus (usually disabled).
    """
    point = ScenarioPoint(
        link=link,
        mix=tuple(mix),
        duration=duration,
        warmup=warmup,
        backend=backend,
        trials=trials,
        seed=seed,
        loss_mode=loss_mode,
    )
    return run_mix_batch([point], obs=obs)[0]


def run_mix_batch(
    points: Sequence[ScenarioPoint], obs: Optional["Telemetry"] = None
) -> List[ScenarioResult]:
    """Run scenario points, pooling the fluid ones; results come back
    in point order.

    When the fluid points together are wide enough
    (:func:`runs_vectorized`), every trial of every one of them is
    pooled into a *single* vectorized simulation — the execution
    engine's chunked dispatch relies on this to amortize tick overhead
    across whole sweeps.  Otherwise, and for packet points, each trial
    is one scalar substrate run.  The vectorized substrate is
    batch-invariant bit for bit, so the results are identical either
    way.
    """
    from repro.check import resolve as resolve_check
    from repro.obs.bus import resolve

    obs = resolve(obs)
    check = resolve_check(None)
    pooled = None
    if runs_vectorized(points, obs):
        batch = [
            BatchPoint(**_fluid_trial(point, trial))
            for point in points
            if point.backend == "fluid"
            for trial in range(point.trials)
        ]
        pooled = iter(run_fluid_vec_batch(batch))
    results = []
    for point in points:
        if pooled is not None and point.backend == "fluid":
            trial_results = list(islice(pooled, point.trials))
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
            trial_results = [
                _run_trial(point, trial, obs)
                for trial in range(point.trials)
            ]
        results.append(_aggregate_trials(point.mix, trial_results))
    return results


def _fluid_trial(point: ScenarioPoint, trial: int) -> Dict[str, Any]:
    """Trial ``trial`` of a fluid point as :func:`run_fluid` arguments
    (equally :class:`BatchPoint` fields); it runs with ``seed + trial``
    on either implementation."""
    return {
        "link": point.link,
        "flows": [
            FluidSpec(cc=cc, rtt=rtt) for cc, rtt in expand_mix(point.mix)
        ],
        "duration": point.duration,
        "warmup": point.warmup,
        "loss_mode": point.loss_mode,
        "seed": point.seed + trial,
        "start_jitter": min(1.0, point.duration / 30.0),
    }


def _run_trial(
    point: ScenarioPoint, trial: int, obs: Optional["Telemetry"]
) -> Any:
    """One trial on a scalar substrate."""
    if point.backend == "packet":
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
    return run_fluid(obs=obs, **_fluid_trial(point, trial))


def _aggregate_trials(
    mix: Sequence[Tuple[Any, ...]], trial_results: Sequence[Any]
) -> ScenarioResult:
    """Average per-trial simulation results into a ScenarioResult.

    A trial's flows come back in mix order; entries with one
    :func:`class_label` are one class.
    """
    members: Dict[str, List[int]] = {}  # class -> its flow positions
    cursor = 0
    for cc, count, *rtt in mix:
        members.setdefault(class_label(cc, *rtt), []).extend(
            range(cursor, cursor + count)
        )
        cursor += count
    per_flow: Dict[str, List[float]] = {}
    aggregate: Dict[str, List[float]] = {}
    loss: Dict[str, List[float]] = {}
    retx: Dict[str, List[float]] = {}
    for result in trial_results:
        for label, positions in members.items():
            flows = [result.flows[i] for i in positions]
            total = sum(f.throughput for f in flows)
            per_flow.setdefault(label, []).append(total / len(flows))
            aggregate.setdefault(label, []).append(total)
            loss.setdefault(label, []).append(
                mean(f.loss_rate for f in flows)
            )
            retx.setdefault(label, []).append(
                mean(f.retransmits for f in flows)
            )

    def over_trials(samples: Dict[str, List[float]]) -> Dict[str, float]:
        return {label: mean(values) for label, values in samples.items()}

    return ScenarioResult(
        per_flow=over_trials(per_flow),
        aggregate=over_trials(aggregate),
        mean_queuing_delay=mean(r.mean_queuing_delay for r in trial_results),
        loss_rate=over_trials(loss),
        retransmits=over_trials(retx),
        drop_rate=mean(r.drop_rate for r in trial_results),
    )


def _payoff_fn(
    point_of: Callable[[Tuple[int, ...]], ScenarioPoint],
    incumbent: str,
    challenger: str,
    rtts: Sequence[Optional[float]],
    engine: Optional["Engine"],
    weight: float = 0.0,
):
    """The one game evaluator: ``payoff(*states)`` for
    :class:`repro.core.game.GroupGame`, a round of states being one
    ``run_points`` batch of ``point_of(state)`` points.

    Group ``g``'s payoff pair is read from the result classes of
    (``incumbent``, ``challenger``) at ``rtts[g]`` — lower-case, as
    :class:`ScenarioPoint` normalises the mix — less ``weight`` × the
    shared queuing delay.  The engine (explicit, installed default, or
    the sequential fallback) is resolved per round: identical states
    are reused across games when a result cache is configured, and a
    round's misses fan out over ``--jobs`` workers.  The call's two
    halves are its attributes ``points`` (states to scenario points) and
    ``read`` (their results to payoffs), for :func:`point_rounds`.
    """
    labels = [
        [class_label(cc.lower(), rtt) for cc in (incumbent, challenger)]
        for rtt in rtts
    ]

    def points(states: Sequence[Tuple[int, ...]]) -> List[ScenarioPoint]:
        return [point_of(state) for state in states]

    def read(results: Sequence[ScenarioResult]):
        payoffs = []
        for result in results:
            penalty = weight * result.mean_queuing_delay
            payoffs.append(
                [
                    tuple(result.per_flow.get(c, 0.0) - penalty for c in pair)
                    for pair in labels
                ]
            )
        return payoffs

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
    link: LinkConfig,
    n_flows: int,
    challenger: str = "bbr",
    incumbent: str = "cubic",
    duration: float = 60.0,
    backend: str = "fluid",
    trials: int = 1,
    seed: int = 0,
    engine: Optional["Engine"] = None,
    loss_mode: str = "proportional",
    delay_weight: float = 0.0,
):
    """Payoffs of the same-RTT game (§4.1, §4.4): a one-group
    :class:`repro.core.game.GroupGame` over ``n_flows`` flows.

    State ``(k,)`` is the scenario point ``((incumbent, n_flows − k),
    (challenger, k))`` at ``spaced_seed(seed, k)``; its payoff pair is
    the (incumbent, challenger) per-flow throughput.  A positive
    ``delay_weight`` makes it the §4.3 utility game ``U = throughput −
    w·delay``: the *shared* queuing delay, in "Mbps of throughput a user
    would trade for 100 ms of delay" — common to both CCAs at any
    distribution, which is why the paper conjectures the NE structure is
    throughput-driven.
    """
    if delay_weight < 0:
        raise ValueError(
            f"delay_weight must be non-negative, got {delay_weight}"
        )

    def point_of(state: Tuple[int, ...]) -> ScenarioPoint:
        (k,) = state
        return ScenarioPoint(
            link=link,
            mix=((incumbent, n_flows - k), (challenger, k)),
            duration=duration,
            backend=backend,
            trials=trials,
            seed=spaced_seed(seed, k),
            loss_mode=loss_mode,
        )

    # Mbps-per-100ms → (bytes/s) per second-of-delay.
    weight = delay_weight * (1e6 / 8.0) / 0.1
    return _payoff_fn(
        point_of, incumbent, challenger, [None], engine, weight
    )


def group_payoff_fn(
    link: LinkConfig,
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
            trials=trials,
            seed=seed,
        )

    return _payoff_fn(point_of, incumbent, challenger, group_rtts, engine)
