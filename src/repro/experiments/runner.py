"""Scenario runner: one interface over both simulator substrates.

The experiment harness asks one question over and over: *given a link and
a mix of flows, what per-flow throughput does each CCA class get?*  This
module answers it against either backend — ``backend="packet"`` for the
high-fidelity discrete-event simulator (1–2 flow validation figures) or
``backend="fluid"`` for the fluid model (large NE sweeps) — with
multi-trial averaging and seeded per-trial jitter, mirroring the
paper's 10-trial methodology.

The fluid model has two bitwise-identical implementations, the scalar
per-flow loop and the vectorized batch substrate; which one runs is
decided here, per group of requests, by :func:`runs_vectorized`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from statistics import mean
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.fluidsim.core import FluidSpec, run_fluid
from repro.fluidsim.vec import BatchPoint, run_fluid_vec_batch
from repro.scenario import BACKENDS, canonical_backend, expand_mix
from repro.sim.network import FlowSpec, run_dumbbell
from repro.util.config import LinkConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.engine import Engine
    from repro.obs.bus import Telemetry

__all__ = [
    "BACKENDS",
    "VEC_MIN_ROWS",
    "ScenarioResult",
    "distribution_throughput_fn",
    "distribution_utility_fn",
    "expand_mix",
    "flow_rows",
    "group_payoff_fn",
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


def flow_rows(mix: Sequence[Tuple[str, int]], trials: int = 1) -> int:
    """Rows a request adds to a vectorized batch: one per flow per trial."""
    return trials * sum(count for _cc, count in mix)


def runs_vectorized(rows: int, obs: Optional["Telemetry"] = None) -> bool:
    """Whether a group of fluid requests runs as one vectorized batch.

    ``rows`` is the group's total :func:`flow_rows`.  The vectorized
    substrate pays a fixed numpy cost per tick, so it wins only once
    the batch is :data:`VEC_MIN_ROWS` wide.  Instrumented runs — a live
    telemetry bus (``obs`` or the process default) or a live invariant
    checker — always take the scalar loop: per-flow ``cc.*`` events and
    the law-object checks exist only there.  Both paths produce the
    same bits, so this decides wall time only.
    """
    from repro.check import resolve as resolve_check
    from repro.obs.bus import resolve

    if resolve(obs) is not None or resolve_check(None) is not None:
        return False
    return rows >= VEC_MIN_ROWS


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
    """Per-CCA scenario aggregates, averaged over trials.

    Attributes:
        per_flow: Mean per-flow throughput by CCA (bytes/second).
        aggregate: Total throughput by CCA (bytes/second).
        mean_queuing_delay: Mean bottleneck queuing delay (seconds).
        loss_rate: Mean per-flow loss rate by CCA (fraction of sent
            data lost; bytes for the fluid backend, packets for the
            packet backend).
        retransmits: Mean per-flow retransmission count by CCA.
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
    mix: Sequence[Tuple[str, int]],
    duration: float = 60.0,
    warmup: Optional[float] = None,
    backend: str = "fluid",
    trials: int = 1,
    seed: int = 0,
    rtts: Optional[Dict[str, float]] = None,
    loss_mode: str = "proportional",
    obs: Optional["Telemetry"] = None,
) -> ScenarioResult:
    """Run a flow mix and return per-CCA mean throughputs.

    Args:
        link: Bottleneck configuration.
        mix: Pairs of (cc name, flow count), e.g. ``[("cubic", 5),
            ("bbr", 5)]``.  Zero counts are allowed and skipped.
        duration: Flow lifetime per trial (the paper uses 120 s).
        warmup: Measurement exclusion window; defaults to ``duration/6``
            to skip the startup transient.
        backend: ``"packet"`` or ``"fluid"``.  A fluid request whose
            trials are wide enough (:func:`runs_vectorized`) advances
            them as one vectorized batch.
        trials: Trials to average; trial ``t`` uses seed ``seed + t``.
        seed: Base RNG seed (fluid backend jitter / loss lottery).
        rtts: Optional per-CCA base RTT override in seconds.
        loss_mode: Fluid-backend CUBIC synchronization mode.
        obs: Optional telemetry bus threaded into the substrate;
            defaults to the process-wide bus (usually disabled).
    """
    backend, warmup = _validate_mix_args(backend, trials, duration, warmup)

    from repro.check import resolve as resolve_check
    from repro.obs.bus import resolve

    obs = resolve(obs)
    if backend == "fluid" and runs_vectorized(flow_rows(mix, trials), obs):
        trial_results = run_fluid_vec_batch(
            _vec_trial_points(
                link, mix, duration, warmup, trials, seed, rtts, loss_mode
            )
        )
        return _aggregate_trials(mix, trial_results)

    check = resolve_check(None)
    if check is not None:
        check.set_context(
            backend=backend,
            mix=[[cc, count] for cc, count in mix],
            duration=duration,
            warmup=warmup,
            seed=seed,
        )
    trial_results = [
        _run_once(
            link,
            mix,
            duration,
            warmup,
            backend,
            seed + trial,
            rtts,
            loss_mode,
            obs,
        )
        for trial in range(trials)
    ]
    return _aggregate_trials(mix, trial_results)


def run_mix_batch(
    requests: Sequence[Dict[str, Any]],
    obs: Optional["Telemetry"] = None,
) -> List[ScenarioResult]:
    """Run several :func:`run_mix` requests, pooling the fluid ones.

    Each request is a mapping of :func:`run_mix` keyword arguments
    (minus ``obs``); results come back in request order.  When the
    fluid requests together are wide enough (:func:`runs_vectorized`),
    every trial of every one of them is pooled into a *single*
    vectorized simulation — the execution engine's chunked dispatch
    relies on this to amortize tick overhead across whole sweeps.
    Otherwise, and for packet requests, this is a sequence of
    :func:`run_mix` calls.  The vectorized substrate is batch-invariant
    bit for bit, so the results are identical either way.
    """
    fluid = {
        index
        for index, request in enumerate(requests)
        if canonical_backend(request.get("backend", "fluid")) == "fluid"
    }
    rows = sum(
        flow_rows(requests[i]["mix"], requests[i].get("trials", 1))
        for i in fluid
    )
    if not runs_vectorized(rows, obs):
        return [run_mix(obs=obs, **request) for request in requests]
    results: List[Optional[ScenarioResult]] = [None] * len(requests)
    points: List[BatchPoint] = []
    slots: List[Tuple[int, int]] = []
    for index, request in enumerate(requests):
        if index not in fluid:
            results[index] = run_mix(obs=obs, **request)
            continue
        trials = request.get("trials", 1)
        duration = request.get("duration", 60.0)
        _backend, warmup = _validate_mix_args(
            "fluid", trials, duration, request.get("warmup")
        )
        trial_points = _vec_trial_points(
            request["link"],
            request["mix"],
            duration,
            warmup,
            trials,
            request.get("seed", 0),
            request.get("rtts"),
            request.get("loss_mode", "proportional"),
        )
        slots.append((index, len(trial_points)))
        points.extend(trial_points)
    sims = run_fluid_vec_batch(points)
    cursor = 0
    for index, count in slots:
        results[index] = _aggregate_trials(
            requests[index]["mix"], sims[cursor:cursor + count]
        )
        cursor += count
    return results  # type: ignore[return-value]


def _validate_mix_args(
    backend: str,
    trials: int,
    duration: float,
    warmup: Optional[float],
) -> Tuple[str, float]:
    """Shared run_mix argument validation; returns the canonical
    backend and the resolved warmup."""
    backend = canonical_backend(backend)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if warmup is None:
        warmup = duration / 6.0
    if not 0 <= warmup < duration:
        raise ValueError(
            f"warmup must lie in [0, duration), got warmup={warmup} "
            f"with duration={duration}"
        )
    return backend, warmup


def _vec_trial_points(
    link: LinkConfig,
    mix: Sequence[Tuple[str, int]],
    duration: float,
    warmup: float,
    trials: int,
    seed: int,
    rtts: Optional[Dict[str, float]],
    loss_mode: str,
) -> List[BatchPoint]:
    """One :class:`BatchPoint` per trial, seeded exactly like the
    sequential trial loop (trial ``t`` runs with ``seed + t``)."""
    flows = tuple(
        FluidSpec(cc=cc, rtt=rtt) for cc, rtt in expand_mix(mix, rtts)
    )
    return [
        BatchPoint(
            link=link,
            flows=flows,
            duration=duration,
            warmup=warmup,
            loss_mode=loss_mode,
            seed=seed + trial,
            start_jitter=min(1.0, duration / 30.0),
        )
        for trial in range(trials)
    ]


def _aggregate_trials(
    mix: Sequence[Tuple[str, int]],
    trial_results: Sequence[Any],
) -> ScenarioResult:
    """Average per-trial simulation results into a ScenarioResult."""
    per_flow_samples: Dict[str, List[float]] = {}
    aggregate_samples: Dict[str, List[float]] = {}
    loss_samples: Dict[str, List[float]] = {}
    retx_samples: Dict[str, List[float]] = {}
    delay_samples: List[float] = []
    drop_samples: List[float] = []
    for result in trial_results:
        delay_samples.append(result.mean_queuing_delay)
        drop_samples.append(result.drop_rate)
        for cc, _count in mix:
            cc = cc.lower()
            flows = result.by_cc(cc)
            if not flows:
                continue
            per_flow_samples.setdefault(cc, []).append(
                result.mean_throughput(cc)
            )
            aggregate_samples.setdefault(cc, []).append(
                result.aggregate_throughput(cc)
            )
            loss_samples.setdefault(cc, []).append(
                mean(f.loss_rate for f in flows)
            )
            retx_samples.setdefault(cc, []).append(
                mean(f.retransmits for f in flows)
            )

    return ScenarioResult(
        per_flow={cc: mean(v) for cc, v in per_flow_samples.items()},
        aggregate={cc: mean(v) for cc, v in aggregate_samples.items()},
        mean_queuing_delay=mean(delay_samples),
        loss_rate={cc: mean(v) for cc, v in loss_samples.items()},
        retransmits={cc: mean(v) for cc, v in retx_samples.items()},
        drop_rate=mean(drop_samples),
    )


def _run_once(
    link: LinkConfig,
    mix: Sequence[Tuple[str, int]],
    duration: float,
    warmup: float,
    backend: str,
    seed: int,
    rtts: Optional[Dict[str, float]],
    loss_mode: str,
    obs: Optional["Telemetry"] = None,
):
    flows = expand_mix(mix, rtts)
    if backend == "packet":
        specs = [FlowSpec(cc=cc, rtt=rtt) for cc, rtt in flows]
        return run_dumbbell(
            link, specs, duration=duration, warmup=warmup, obs=obs
        )
    fluid_specs = [FluidSpec(cc=cc, rtt=rtt) for cc, rtt in flows]
    return run_fluid(
        link,
        fluid_specs,
        duration=duration,
        warmup=warmup,
        seed=seed,
        start_jitter=min(1.0, duration / 30.0),
        loss_mode=loss_mode,
        obs=obs,
    )


def distribution_throughput_fn(
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
):
    """Build a §4.4-style throughput function over distributions.

    Returns ``fn(k) -> (per-flow incumbent λ, per-flow challenger λ)`` for
    ``k`` challenger flows out of ``n_flows`` — the shape
    :class:`repro.core.game.ThroughputTable` and
    :func:`repro.core.game.bisect_nash` consume.  Evaluations route
    through the execution engine (explicit, installed default, or the
    sequential fallback), so identical distribution points are reused
    across sweeps when a result cache is configured.
    """

    def fn(k: int) -> Tuple[float, float]:
        if not 0 <= k <= n_flows:
            raise ValueError(f"k must be in [0, {n_flows}], got {k}")
        from repro.exec.engine import resolve as resolve_engine

        result = resolve_engine(engine).run_mix(
            link,
            [(incumbent, n_flows - k), (challenger, k)],
            duration=duration,
            backend=backend,
            trials=trials,
            seed=spaced_seed(seed, k),
            loss_mode=loss_mode,
        )
        return (
            result.per_flow.get(incumbent, 0.0),
            result.per_flow.get(challenger, 0.0),
        )

    return fn


def distribution_utility_fn(
    link: LinkConfig,
    n_flows: int,
    delay_weight: float,
    challenger: str = "bbr",
    incumbent: str = "cubic",
    duration: float = 60.0,
    backend: str = "fluid",
    trials: int = 1,
    seed: int = 0,
    engine: Optional["Engine"] = None,
    loss_mode: str = "proportional",
):
    """A §4.3-style utility game: ``U = throughput − w·delay``.

    The utility is a linear combination of per-flow throughput
    (bytes/second) and the *shared* queuing delay (seconds), scaled so
    ``delay_weight`` is in "Mbps of throughput a user would trade for
    100 ms of delay".  Because the delay term is common to both CCAs at
    any distribution, the paper conjectures the NE structure is
    throughput-driven; feed this into
    :class:`repro.core.game.ThroughputTable` (whose machinery is
    payoff-agnostic) to test that.
    """
    if delay_weight < 0:
        raise ValueError(
            f"delay_weight must be non-negative, got {delay_weight}"
        )
    # Mbps-per-100ms → (bytes/s) per second-of-delay.
    weight = delay_weight * (1e6 / 8.0) / 0.1

    def fn(k: int) -> Tuple[float, float]:
        if not 0 <= k <= n_flows:
            raise ValueError(f"k must be in [0, {n_flows}], got {k}")
        from repro.exec.engine import resolve as resolve_engine

        result = resolve_engine(engine).run_mix(
            link,
            [(incumbent, n_flows - k), (challenger, k)],
            duration=duration,
            backend=backend,
            trials=trials,
            seed=spaced_seed(seed, k),
            loss_mode=loss_mode,
        )
        penalty = weight * result.mean_queuing_delay
        u_incumbent = result.per_flow.get(incumbent, 0.0) - penalty
        u_challenger = result.per_flow.get(challenger, 0.0) - penalty
        return (u_incumbent, u_challenger)

    return fn


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
    """Payoff function for the multi-RTT :class:`repro.core.game.GroupGame`.

    The returned callable maps a tuple of per-group challenger counts to
    per-group ``(incumbent per-flow λ, challenger per-flow λ)`` pairs,
    measured with the fluid backend (per-flow RTTs differ, so the packet
    backend also works but is far slower).  Evaluations are memoized in
    the execution engine's result cache (when one is configured) under a
    ``group_payoff`` descriptor, so best-response walks that revisit a
    state — and repeated figure sweeps — reuse the measurement.
    """
    if len(group_rtts) != len(group_sizes):
        raise ValueError("group_rtts and group_sizes must align")

    def measure(state: Sequence[int]) -> List[Tuple[float, float]]:
        specs = []
        membership = []  # (group, is_challenger)
        for g, (rtt, size) in enumerate(zip(group_rtts, group_sizes)):
            k = state[g]
            for i in range(size):
                cc = challenger if i < k else incumbent
                specs.append(FluidSpec(cc=cc, rtt=rtt))
                membership.append((g, i < k))

        totals: Dict[Tuple[int, bool], List[float]] = {}
        for trial in range(trials):
            result = run_fluid(
                link,
                specs,
                duration=duration,
                warmup=duration / 6.0,
                seed=seed + trial,
                start_jitter=min(1.0, duration / 30.0),
            )
            for flow, (g, is_challenger) in zip(
                result.flows, membership
            ):
                totals.setdefault((g, is_challenger), []).append(
                    flow.throughput
                )
        payoffs = []
        for g in range(len(group_sizes)):
            inc = totals.get((g, False), [])
            cha = totals.get((g, True), [])
            payoffs.append(
                (mean(inc) if inc else 0.0, mean(cha) if cha else 0.0)
            )
        return payoffs

    def payoff(state: Sequence[int]):
        for g, size in enumerate(group_sizes):
            if not 0 <= state[g] <= size:
                raise ValueError(
                    f"group {g}: count {state[g]} outside [0, {size}]"
                )
        from repro.exec.engine import resolve as resolve_engine
        from repro.exec.fingerprint import link_params

        params = {
            "link": link_params(link),
            "rtts": [float(r) for r in group_rtts],
            "sizes": [int(s) for s in group_sizes],
            "state": [int(k) for k in state],
            "challenger": challenger.lower(),
            "incumbent": incumbent.lower(),
            "duration": duration,
            "trials": trials,
            "seed": seed,
        }
        payload = resolve_engine(engine).cached_payload(
            "group_payoff",
            params,
            lambda: {"payoffs": [list(p) for p in measure(state)]},
        )
        return [(p[0], p[1]) for p in payload["payoffs"]]

    return payoff
