"""First-class scenario schema: the canonical bottleneck description.

Every layer of the pipeline — the analytical model, both simulator
substrates, the execution engine's fingerprints, campaign axes, and the
CLI — agrees on one description of the bottleneck: a
:class:`BottleneckSpec`.  Beyond the classic drop-tail/constant-capacity
dumbbell (the paper's setting, and the default), a spec can carry an
active queue management discipline (:class:`REDSpec` / :class:`CoDelSpec`,
optionally marking ECN instead of dropping) and a time-varying capacity
trace (:class:`StepsTrace` / :class:`SampledTrace`) for wireless-style
links.

The schema is *canonical*: :meth:`BottleneckSpec.to_dict` normalizes the
spec into plain JSON types, and scenario fingerprints derive from that
dict — two specs spelled differently (string vs. object AQM, default vs.
explicit trace) that mean the same scenario hash identically.  This
module depends only on ``repro.util.units`` so both the experiments
layer and the execution layer can import it top-level without cycles;
it is also the canonical home of the :data:`BACKENDS` registry.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from math import isfinite
from typing import (
    Any,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.util.units import MSS_BYTES, mbps_to_bytes_per_sec, ms_to_s

#: Canonical simulator backend registry.  Lives here (dependency-free)
#: so ``repro.exec`` and ``repro.campaign`` can validate backends
#: without importing the experiments layer.
BACKENDS = ("packet", "fluid")


def canonical_backend(backend: str) -> str:
    """Validate a backend name and return its canonical spelling.

    ``"fluid-vec"`` is accepted as an input spelling of ``"fluid"``:
    specs and ``spec.json`` files written when the vectorized fluid
    path was a backend of its own keep loading.  Which fluid path runs
    is chosen per group of rows
    (:func:`repro.experiments.runner.runs_vectorized`), never declared.
    """
    if backend == "fluid-vec":
        return "fluid"
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {BACKENDS}, got {backend}"
        )
    return backend


#: Fluid-backend loss-assignment modes (CUBIC synchronization levels,
#: §2.4).  Declared beside ``BACKENDS`` for the same reason: spec
#: parsers validate them without importing a simulator.
LOSS_MODES = ("sync", "desync", "proportional")

#: AQM disciplines a spec can name.
AQM_KINDS = ("droptail", "red", "codel")

#: Capacity-trace kinds a spec can name.
TRACE_KINDS = ("constant", "steps", "trace")


def check_run_window(duration: float, warmup: float) -> None:
    """Raise ValueError, naming the values, unless a run of ``duration``
    seconds measures from ``warmup`` in [0, duration)."""
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if not 0 <= warmup < duration:
        raise ValueError(
            f"warmup must lie in [0, duration), got warmup={warmup} "
            f"with duration={duration}"
        )


def _canon_float(name: str, value: Any) -> float:
    """Coerce ``value`` to a finite float (canonicalization helper)."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not isfinite(out):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return out


# ---------------------------------------------------------------------------
# AQM specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DropTailSpec:
    """The classic tail-drop queue — the paper's (and repo's) default.

    Carries no parameters: the drop threshold *is* the buffer size on
    the owning :class:`BottleneckSpec`.
    """

    kind: ClassVar[str] = "droptail"

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form."""
        return {"kind": "droptail"}


@dataclass(frozen=True)
class REDSpec:
    """Random Early Detection, thresholds as fractions of the buffer.

    Thresholds are *fractions* rather than bytes so the same spec
    composes with buffer-depth sweeps: a campaign axis over
    ``buffer_bdp`` rescales the RED thresholds with the buffer.  The
    defaults are Floyd's rule of thumb, min at 1/6 of the buffer and
    max at 1/2 (max = 3 × min).

    Attributes:
        min_frac: ``min_threshold = min_frac × buffer_bytes``.
        max_frac: ``max_threshold = max_frac × buffer_bytes``.
        max_p: Drop/mark probability at ``max_threshold``.
        weight: EWMA weight for the average queue estimate.
        ecn: Mark packets (ECN CE) instead of dropping them.
        seed: RNG seed for the packet substrate's drop lottery (the
            fluid substrates are deterministic and ignore it).
    """

    kind: ClassVar[str] = "red"

    min_frac: float = 1.0 / 6.0
    max_frac: float = 0.5
    max_p: float = 0.1
    weight: float = 0.002
    ecn: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "min_frac", _canon_float("min_frac", self.min_frac)
        )
        object.__setattr__(
            self, "max_frac", _canon_float("max_frac", self.max_frac)
        )
        object.__setattr__(self, "max_p", _canon_float("max_p", self.max_p))
        object.__setattr__(self, "weight", _canon_float("weight", self.weight))
        object.__setattr__(self, "ecn", bool(self.ecn))
        object.__setattr__(self, "seed", int(self.seed))
        if not 0.0 < self.min_frac < self.max_frac <= 1.0:
            raise ValueError(
                "RED thresholds must satisfy 0 < min_frac < max_frac <= 1, "
                f"got min_frac={self.min_frac} max_frac={self.max_frac}"
            )
        if not 0.0 < self.max_p <= 1.0:
            raise ValueError(f"max_p must be in (0, 1], got {self.max_p}")
        if not 0.0 < self.weight <= 1.0:
            raise ValueError(f"weight must be in (0, 1], got {self.weight}")

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form (all fields, explicit)."""
        return {
            "kind": "red",
            "min_frac": self.min_frac,
            "max_frac": self.max_frac,
            "max_p": self.max_p,
            "weight": self.weight,
            "ecn": self.ecn,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class CoDelSpec:
    """Controlled Delay AQM (head-drop on sojourn time).

    Attributes:
        target: Target sojourn time in seconds.
        interval: Sliding window for the target in seconds.
        ecn: Mark at the head instead of dropping.
    """

    kind: ClassVar[str] = "codel"

    target: float = 0.005
    interval: float = 0.100
    ecn: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", _canon_float("target", self.target))
        object.__setattr__(
            self, "interval", _canon_float("interval", self.interval)
        )
        object.__setattr__(self, "ecn", bool(self.ecn))
        if self.target <= 0:
            raise ValueError(f"target must be positive, got {self.target}")
        if self.interval <= self.target:
            raise ValueError(
                "interval must exceed target, got "
                f"interval={self.interval} target={self.target}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form (all fields, explicit)."""
        return {
            "kind": "codel",
            "target": self.target,
            "interval": self.interval,
            "ecn": self.ecn,
        }


AqmSpec = Union[DropTailSpec, REDSpec, CoDelSpec]

_AQM_CLASSES: Dict[str, type] = {
    "droptail": DropTailSpec,
    "red": REDSpec,
    "codel": CoDelSpec,
}

#: Accepted spellings for each AQM kind (case-insensitive).
_AQM_ALIASES: Dict[str, str] = {
    "droptail": "droptail",
    "drop-tail": "droptail",
    "drop_tail": "droptail",
    "tail": "droptail",
    "none": "droptail",
    "red": "red",
    "codel": "codel",
}

#: Shared default instances (immutable, safe as dataclass defaults).
DROP_TAIL = DropTailSpec()
CONSTANT = None  # assigned below once ConstantTrace exists


def aqm_from_dict(data: Mapping[str, Any]) -> AqmSpec:
    """Rebuild an AQM spec from its :meth:`to_dict` form.

    Missing fields take their defaults, so hand-written dicts like
    ``{"kind": "red", "ecn": true}`` are accepted; unknown keys are
    rejected to catch typos.
    """
    if "kind" not in data:
        raise ValueError(f"AQM dict needs a 'kind' key, got {dict(data)!r}")
    kind = str(data["kind"]).strip().lower()
    if kind not in _AQM_ALIASES:
        raise ValueError(
            f"aqm kind must be one of {AQM_KINDS}, got {data['kind']!r}"
        )
    cls = _AQM_CLASSES[_AQM_ALIASES[kind]]
    kwargs = {k: v for k, v in data.items() if k != "kind"}
    allowed = {f.name for f in fields(cls)}
    unknown = set(kwargs) - allowed
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} keys: {sorted(unknown)} "
            f"(allowed: {sorted(allowed)})"
        )
    return cls(**kwargs)


def parse_aqm(value: Any, ecn: Optional[bool] = None) -> AqmSpec:
    """Normalize any user-facing AQM spelling into an :data:`AqmSpec`.

    Accepts ``None`` (drop-tail), a kind string (``"red"``, ``"CoDel"``,
    ``"drop-tail"``, ...), a :meth:`to_dict`-style mapping, or an
    existing spec instance.  ``ecn`` (when not ``None``) overrides the
    spec's marking flag; requesting ECN on drop-tail is an error.
    """
    if value is None:
        spec: AqmSpec = DROP_TAIL
    elif isinstance(value, (DropTailSpec, REDSpec, CoDelSpec)):
        spec = value
    elif isinstance(value, Mapping):
        spec = aqm_from_dict(value)
    elif isinstance(value, str):
        key = value.strip().lower()
        if key not in _AQM_ALIASES:
            raise ValueError(f"aqm must be one of {AQM_KINDS}, got {value!r}")
        spec = _AQM_CLASSES[_AQM_ALIASES[key]]()
    else:
        raise ValueError(f"cannot interpret {value!r} as an AQM spec")
    if ecn is not None:
        if isinstance(spec, DropTailSpec):
            if ecn:
                raise ValueError(
                    "ECN marking requires an AQM (red or codel), "
                    "not drop-tail"
                )
        elif spec.ecn != bool(ecn):
            spec = replace(spec, ecn=bool(ecn))
    return spec


# ---------------------------------------------------------------------------
# Capacity traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantTrace:
    """Fixed capacity for the whole run — the default."""

    kind: ClassVar[str] = "constant"

    @property
    def is_constant(self) -> bool:
        return True

    def scale_at(self, t: float) -> float:
        """Capacity multiplier at time ``t`` (always 1)."""
        return 1.0

    def change_events(self) -> Tuple[Tuple[float, float], ...]:
        """``(time, scale)`` change points strictly after t=0 (none)."""
        return ()

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form."""
        return {"kind": "constant"}


@dataclass(frozen=True)
class StepsTrace:
    """A few explicit capacity steps: ``capacity ×= scale`` at each time.

    The multiplier is 1 until the first step; each step holds until the
    next.  Times must be strictly increasing and positive; scales must
    be positive and finite (a scale of 1.0 restores the base capacity).
    """

    kind: ClassVar[str] = "steps"

    steps: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        canon: List[Tuple[float, float]] = []
        for i, step in enumerate(self.steps):
            try:
                t, s = step
            except (TypeError, ValueError):
                raise ValueError(
                    f"steps[{i}] must be a (time, scale) pair, got {step!r}"
                )
            canon.append((_canon_float(f"steps[{i}] time", t),
                          _canon_float(f"steps[{i}] scale", s)))
        object.__setattr__(self, "steps", tuple(canon))
        if not self.steps:
            raise ValueError(
                "steps trace needs at least one (time, scale) step"
            )
        last = 0.0
        for t, s in self.steps:
            if t <= last:
                raise ValueError(
                    "step times must be positive and strictly increasing, "
                    f"got {[t for t, _ in self.steps]}"
                )
            if s <= 0:
                raise ValueError(f"step scales must be positive, got {s}")
            last = t

    @property
    def is_constant(self) -> bool:
        return False

    def scale_at(self, t: float) -> float:
        """Capacity multiplier at time ``t`` (piecewise constant)."""
        scale = 1.0
        for when, value in self.steps:
            if t < when:
                break
            scale = value
        return scale

    def change_events(self) -> Tuple[Tuple[float, float], ...]:
        """``(time, scale)`` change points strictly after t=0."""
        return self.steps

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form (steps as lists for JSON round-trips)."""
        return {"kind": "steps", "steps": [[t, s] for t, s in self.steps]}


@dataclass(frozen=True)
class SampledTrace:
    """A dense piecewise-constant trace sampled every ``period`` seconds.

    Sample ``k`` applies on ``[k·period, (k+1)·period)``; the last
    sample holds forever (wireless traces shorter than the run simply
    plateau).  This is the wire format for replaying measured capacity
    traces.
    """

    kind: ClassVar[str] = "trace"

    period: float = 1.0
    scales: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "period", _canon_float("period", self.period))
        object.__setattr__(
            self,
            "scales",
            tuple(
                _canon_float(f"scales[{i}]", s)
                for i, s in enumerate(self.scales)
            ),
        )
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if not self.scales:
            raise ValueError("sampled trace needs at least one scale sample")
        for s in self.scales:
            if s <= 0:
                raise ValueError(f"trace scales must be positive, got {s}")

    @property
    def is_constant(self) -> bool:
        return False

    def scale_at(self, t: float) -> float:
        """Capacity multiplier at time ``t`` (hold-last)."""
        index = int(t / self.period)
        if index < 0:
            index = 0
        if index >= len(self.scales):
            index = len(self.scales) - 1
        return self.scales[index]

    def change_events(self) -> Tuple[Tuple[float, float], ...]:
        """``(time, scale)`` change points strictly after t=0.

        Consecutive equal samples collapse into one hold, so the packet
        substrate schedules only genuine changes.  The t=0 sample is the
        *initial* scale (see :meth:`scale_at`), not a change.
        """
        events: List[Tuple[float, float]] = []
        previous = self.scales[0]
        for k in range(1, len(self.scales)):
            if self.scales[k] != previous:
                events.append((k * self.period, self.scales[k]))
                previous = self.scales[k]
        return tuple(events)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form."""
        return {
            "kind": "trace",
            "period": self.period,
            "scales": list(self.scales),
        }


CapacityTrace = Union[ConstantTrace, StepsTrace, SampledTrace]

CONSTANT = ConstantTrace()


def trace_from_dict(data: Mapping[str, Any]) -> CapacityTrace:
    """Rebuild a capacity trace from its :meth:`to_dict` form."""
    if "kind" not in data:
        raise ValueError(f"trace dict needs a 'kind' key, got {dict(data)!r}")
    kind = str(data["kind"]).strip().lower()
    extra = {k: v for k, v in data.items() if k != "kind"}
    if kind == "constant":
        if extra:
            raise ValueError(
                f"constant trace takes no keys, got {sorted(extra)}"
            )
        return CONSTANT
    if kind == "steps":
        unknown = set(extra) - {"steps"}
        if unknown:
            raise ValueError(f"unknown steps-trace keys: {sorted(unknown)}")
        return StepsTrace(
            steps=tuple(tuple(step) for step in extra.get("steps", ()))
        )
    if kind == "trace":
        unknown = set(extra) - {"period", "scales"}
        if unknown:
            raise ValueError(f"unknown sampled-trace keys: {sorted(unknown)}")
        return SampledTrace(
            period=extra.get("period", 1.0),
            scales=tuple(extra.get("scales", ())),
        )
    raise ValueError(
        f"trace kind must be one of {TRACE_KINDS}, got {data['kind']!r}"
    )


def parse_capacity_trace(value: Any) -> CapacityTrace:
    """Normalize any user-facing trace spelling into a trace spec.

    Accepts ``None`` / ``"constant"``, the compact string DSL
    (``"steps:5@0.5,10@1.0"`` — scale 0.5 from t=5 s, back to 1.0 at
    t=10 s; ``"trace:2:1,0.5,0.8"`` — a sample every 2 s), a
    :meth:`to_dict`-style mapping, or an existing trace instance.
    """
    if value is None:
        return CONSTANT
    if isinstance(value, (ConstantTrace, StepsTrace, SampledTrace)):
        return value
    if isinstance(value, Mapping):
        return trace_from_dict(value)
    if not isinstance(value, str):
        raise ValueError(f"cannot interpret {value!r} as a capacity trace")
    text = value.strip()
    if not text or text.lower() == "constant":
        return CONSTANT
    head, _, body = text.partition(":")
    kind = head.strip().lower()
    if kind == "steps":
        steps = []
        for part in body.split(","):
            part = part.strip()
            if not part:
                continue
            when, sep, scale = part.partition("@")
            if not sep:
                raise ValueError(
                    f"steps entries look like TIME@SCALE, got {part!r}"
                )
            steps.append((when, scale))
        return StepsTrace(steps=tuple(steps))
    if kind == "trace":
        period, sep, samples = body.partition(":")
        if not sep:
            raise ValueError(
                "sampled traces look like trace:PERIOD:S1,S2,..., "
                f"got {value!r}"
            )
        scales = tuple(s for s in (p.strip() for p in samples.split(",")) if s)
        return SampledTrace(period=period, scales=scales)
    raise ValueError(
        f"capacity trace must be one of {TRACE_KINDS}, got {value!r}"
    )


# ---------------------------------------------------------------------------
# Process-wide scenario overrides (CLI → internally built links)
# ---------------------------------------------------------------------------

_SCENARIO_OVERRIDES: List[Dict[str, Any]] = []


@contextmanager
def scenario_overrides(
    aqm: Any = None,
    ecn: Optional[bool] = None,
    capacity_trace: Any = None,
):
    """Default-override context for :meth:`BottleneckSpec.from_mbps_ms`.

    Figure generators (and other experiment code) build their links
    internally, so CLI flags like ``--aqm red`` cannot be threaded
    through their signatures.  Inside this context, ``from_mbps_ms``
    calls that leave ``aqm``/``capacity_trace`` unset pick up these
    values instead — applied at *construction* time, before any
    fingerprinting, so cached results stay keyed by the effective
    scenario.  Explicit arguments always win; all-None is a no-op.
    """
    _SCENARIO_OVERRIDES.append(
        {"aqm": aqm, "ecn": ecn, "capacity_trace": capacity_trace}
    )
    try:
        yield
    finally:
        _SCENARIO_OVERRIDES.pop()


# ---------------------------------------------------------------------------
# The bottleneck spec itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BottleneckSpec:
    """A single bottleneck, as in Figure 2 of the paper — plus scenario
    extensions (AQM/ECN, time-varying capacity) beyond it.

    The drop-tail/constant default is the paper's setting, and every
    layer treats it as the bit-identical fast path.  Every substrate
    reads the whole bottleneck from this one object: the packet
    dumbbell builds its RED / CoDel, ECN flag, MSS and capacity steps
    from it, and the fluid substrates their per-tick AQM and capacity.

    Attributes:
        capacity: Link capacity in bytes per second (the *base* capacity
            when a trace is attached).
        rtt: Base (congestion-free) round-trip propagation delay in seconds.
        buffer_bdp: Bottleneck buffer size as a multiple of the BDP.
        mss: Segment size in bytes, used when the buffer is counted in
            packets (e.g. by the Ware et al. model).
        aqm: Queue discipline at the bottleneck (default drop-tail).
        capacity_trace: Piecewise-constant capacity multiplier over time
            (default constant 1).
    """

    capacity: float
    rtt: float
    buffer_bdp: float
    mss: int = MSS_BYTES
    aqm: AqmSpec = field(default=DROP_TAIL)
    capacity_trace: CapacityTrace = field(default=CONSTANT)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        if self.rtt <= 0:
            raise ValueError(f"rtt must be positive, got {self.rtt}")
        if self.buffer_bdp <= 0:
            raise ValueError(
                f"buffer_bdp must be positive, got {self.buffer_bdp}"
            )
        if self.mss <= 0:
            raise ValueError(f"mss must be positive, got {self.mss}")
        if not isinstance(self.aqm, (DropTailSpec, REDSpec, CoDelSpec)):
            object.__setattr__(self, "aqm", parse_aqm(self.aqm))
        if not isinstance(
            self.capacity_trace, (ConstantTrace, StepsTrace, SampledTrace)
        ):
            object.__setattr__(
                self,
                "capacity_trace",
                parse_capacity_trace(self.capacity_trace),
            )

    @classmethod
    def from_mbps_ms(
        cls,
        capacity_mbps: float,
        rtt_ms: float,
        buffer_bdp: float,
        mss: int = MSS_BYTES,
        aqm: Any = None,
        ecn: Optional[bool] = None,
        capacity_trace: Any = None,
    ) -> "BottleneckSpec":
        """Build a spec from the units used in the paper's figures.

        ``aqm``/``capacity_trace`` accept any :func:`parse_aqm` /
        :func:`parse_capacity_trace` spelling; ``ecn`` (when not None)
        overrides the AQM's marking flag.  Parameters the caller leaves
        unset fall back to any active :func:`scenario_overrides`
        context, which is how CLI flags reach links that experiment
        code builds internally.
        """
        if _SCENARIO_OVERRIDES:
            override = _SCENARIO_OVERRIDES[-1]
            if aqm is None:
                aqm = override["aqm"]
                if ecn is None:
                    ecn = override["ecn"]
            if capacity_trace is None:
                capacity_trace = override["capacity_trace"]
        return cls(
            capacity=mbps_to_bytes_per_sec(capacity_mbps),
            rtt=ms_to_s(rtt_ms),
            buffer_bdp=buffer_bdp,
            mss=mss,
            aqm=parse_aqm(aqm, ecn=ecn),
            capacity_trace=parse_capacity_trace(capacity_trace),
        )

    # -- scenario classification --------------------------------------

    @property
    def is_default_scenario(self) -> bool:
        """True for the drop-tail/constant special case (the fast path)."""
        return (
            isinstance(self.aqm, DropTailSpec)
            and self.capacity_trace.is_constant
        )

    @property
    def scenario_family(self) -> str:
        """Short label for grouping results (``droptail``/``red``/...)."""
        return self.aqm.kind

    # -- derived quantities -------------------------------------------

    @property
    def bdp_bytes(self) -> float:
        """Bandwidth-delay product ``C × RTT`` in bytes."""
        return self.capacity * self.rtt

    @property
    def buffer_bytes(self) -> float:
        """Absolute buffer size ``B`` in bytes."""
        return self.buffer_bdp * self.bdp_bytes

    @property
    def buffer_packets(self) -> float:
        """Buffer size in MSS-sized packets (``q`` in Ware et al.)."""
        return self.buffer_bytes / self.mss

    @property
    def capacity_mbps(self) -> float:
        """Link capacity in Mbps, for reporting."""
        return self.capacity * 8.0 / 1e6

    @property
    def rtt_ms(self) -> float:
        """Base RTT in milliseconds, for reporting."""
        return self.rtt * 1e3

    @property
    def max_queuing_delay(self) -> float:
        """Worst-case queuing delay ``B / C`` in seconds (full buffer)."""
        return self.buffer_bytes / self.capacity

    # -- sweeps -------------------------------------------------------

    def with_buffer_bdp(self, buffer_bdp: float) -> "BottleneckSpec":
        """Return a copy with a different buffer depth (for sweeps)."""
        return replace(self, buffer_bdp=buffer_bdp)

    def with_aqm(
        self, aqm: Any, ecn: Optional[bool] = None
    ) -> "BottleneckSpec":
        """Return a copy with a different AQM (any :func:`parse_aqm` form)."""
        return replace(self, aqm=parse_aqm(aqm, ecn=ecn))

    def with_capacity_trace(self, trace: Any) -> "BottleneckSpec":
        """Return a copy with a different capacity trace (any spelling)."""
        return replace(self, capacity_trace=parse_capacity_trace(trace))

    # -- canonical wire form ------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form — the scenario's fingerprint identity.

        Every dataclass field appears, always, with sub-specs in their
        own canonical form.  ``buffer_bdp`` is serialized exactly as
        stored (no float coercion) so integer-authored campaign axes
        keep their historical fingerprints.
        """
        return {
            "capacity": self.capacity,
            "rtt": self.rtt,
            "buffer_bdp": self.buffer_bdp,
            "mss": self.mss,
            "aqm": self.aqm.to_dict(),
            "capacity_trace": self.capacity_trace.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BottleneckSpec":
        """Rebuild a spec from :meth:`to_dict` output (exact floats).

        ``aqm``/``capacity_trace``/``mss`` may be omitted (defaults
        apply); unknown keys are rejected.
        """
        allowed = {
            "capacity",
            "rtt",
            "buffer_bdp",
            "mss",
            "aqm",
            "capacity_trace",
        }
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown BottleneckSpec keys: {sorted(unknown)}")
        for key in ("capacity", "rtt", "buffer_bdp"):
            if key not in data:
                raise ValueError(f"BottleneckSpec dict needs {key!r}")
        return cls(
            capacity=data["capacity"],
            rtt=data["rtt"],
            buffer_bdp=data["buffer_bdp"],
            mss=data.get("mss", MSS_BYTES),
            aqm=parse_aqm(data.get("aqm")),
            capacity_trace=parse_capacity_trace(data.get("capacity_trace")),
        )

    def describe(self) -> str:
        """One-line human-readable summary used by the CLI."""
        text = (
            f"{self.capacity_mbps:g} Mbps, {self.rtt_ms:g} ms RTT, "
            f"{self.buffer_bdp:g} BDP buffer "
            f"({self.buffer_packets:.0f} packets)"
        )
        if not isinstance(self.aqm, DropTailSpec):
            ecn = "+ecn" if self.aqm.ecn else ""
            text += f", {self.aqm.kind}{ecn} AQM"
        if not self.capacity_trace.is_constant:
            text += f", {self.capacity_trace.kind} capacity trace"
        return text


def expand_mix(
    mix: Sequence[Tuple[Any, ...]],
) -> List[Tuple[str, Optional[float]]]:
    """Expand a mix into per-flow ``(cc, rtt)`` pairs.

    An entry is ``(cc, count)`` or ``(cc, count, rtt_seconds)``; ``rtt``
    None (or absent) means the link's base RTT.  The single expansion
    both simulator backends (and the execution engine's scenario
    fingerprints) agree on: CCA names lowercased, order preserved.
    """
    expanded: List[Tuple[str, Optional[float]]] = []
    for cc, count, *rtt in mix:
        expanded.extend([(cc.lower(), rtt[0] if rtt else None)] * count)
    return expanded
