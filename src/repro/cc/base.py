"""Congestion-control interface and algorithm registry.

Every algorithm (Reno, CUBIC, BBRv1, BBRv2, Copa, Vivace) implements
:class:`CongestionControl`.  The packet-level sender drives the controller
with per-ACK :class:`~repro.sim.packet.RateSample` objects and per-event
:class:`~repro.sim.packet.LossEvent` notifications, and reads back two
outputs:

* ``cwnd``  — the byte limit on in-flight data, and
* ``pacing_rate`` — an optional bytes/second pacing limit (None for purely
  ack-clocked algorithms such as Reno and CUBIC).

Algorithms register themselves by name so experiments can be configured
with strings (``make_controller("bbr", mss=1500)``).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.cc.laws.base import INITIAL_CWND_SEGMENTS, MIN_CWND_SEGMENTS
from repro.cc.signals import LossEvent, RateSample

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.core import Checker
    from repro.obs.bus import Telemetry

__all__ = [
    "CongestionControl",
    "INITIAL_CWND_SEGMENTS",
    "MIN_CWND_SEGMENTS",
    "available_algorithms",
    "make_controller",
    "register",
]


class CongestionControl(abc.ABC):
    """Abstract congestion controller.

    Subclasses must keep :attr:`cwnd` (bytes) up to date and may set
    :attr:`pacing_rate` (bytes/second) to enable pacing.
    """

    #: Human-readable algorithm name, overridden by subclasses.
    name = "base"

    #: Whether the algorithm reduces its window in response to loss. The
    #: fluid simulator uses this to decide which flows take overflow cuts.
    loss_based = True

    def __init__(self, mss: int = 1500) -> None:
        if mss <= 0:
            raise ValueError(f"mss must be positive, got {mss}")
        self.mss = mss
        #: Lower bound on cwnd in bytes.
        self.min_cwnd: float = MIN_CWND_SEGMENTS * mss
        self.cwnd: float = INITIAL_CWND_SEGMENTS * mss
        self.pacing_rate: Optional[float] = None
        #: Optional telemetry bus (see :mod:`repro.obs`); None = disabled.
        self.obs: Optional["Telemetry"] = None
        #: Optional invariant checker (see :mod:`repro.check`); when
        #: set, every state-machine transition is validated against the
        #: algorithm's law tables.
        self.check: Optional["Checker"] = None
        #: Flow identity stamped onto emitted events by the substrate.
        self.flow_id: Optional[int] = None

    @abc.abstractmethod
    def on_ack(self, sample: RateSample) -> None:
        """Process one acknowledgement's rate/RTT sample."""

    @abc.abstractmethod
    def on_loss(self, event: LossEvent) -> None:
        """Process a loss notification."""

    # -- telemetry ---------------------------------------------------------

    def emit(self, name: str, now: float, **fields: object) -> None:
        """Emit a typed telemetry event tagged with this flow's identity.

        A no-op when no bus is attached, so controllers call this
        unconditionally at transition points.
        """
        obs = self.obs
        if obs is not None:
            obs.event(
                name, time=now, cc=self.name, flow_id=self.flow_id, **fields
            )

    def emit_state(self, now: float, old: Optional[str], new: str) -> None:
        """Emit a ``cc.state`` state-machine transition event."""
        check = self.check
        if check is not None:
            check.state_transition(
                now, self.name, self.flow_id, old, new, substrate="packet"
            )
        obs = self.obs
        if obs is not None:
            obs.event(
                "cc.state",
                time=now,
                cc=self.name,
                flow_id=self.flow_id,
                **{"from": old, "to": new},
            )
            obs.count("cc.state_transitions")

    def clamp_cwnd(self) -> None:
        """Enforce the cwnd floor."""
        if self.cwnd < self.min_cwnd:
            self.cwnd = self.min_cwnd

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pacing = (
            f", pacing={self.pacing_rate:.0f}B/s" if self.pacing_rate else ""
        )
        return f"<{type(self).__name__} cwnd={self.cwnd:.0f}B{pacing}>"


_REGISTRY: Dict[str, Callable[..., CongestionControl]] = {}


def register(name: str) -> Callable[[type], type]:
    """Class decorator registering a controller under ``name``."""

    def decorator(cls: type) -> type:
        key = name.lower()
        if key in _REGISTRY:
            raise ValueError(f"duplicate congestion control name: {name}")
        _REGISTRY[key] = cls
        return cls

    return decorator


def make_controller(name: str, **kwargs: object) -> CongestionControl:
    """Instantiate a controller by name (case-insensitive).

    Canonical algorithms resolve through the ``repro.cc.laws`` registry;
    controllers registered only via :func:`register` (e.g. third-party
    or test doubles) are found as a fallback.
    """
    from repro.cc.laws import registry as laws_registry

    key = name.lower()
    spec = laws_registry.ALGORITHMS.get(key)
    if spec is not None and spec.packet is not None:
        return laws_registry.packet_class(key)(**kwargs)
    if key in _REGISTRY:
        return _REGISTRY[key](**kwargs)
    raise KeyError(
        f"unknown congestion control {name!r}; "
        f"available: {available_algorithms()}"
    )


def available_algorithms() -> List[str]:
    """Names of all packet-substrate congestion control algorithms."""
    from repro.cc.laws import registry as laws_registry

    canonical = {
        n
        for n in laws_registry.canonical_names()
        if laws_registry.ALGORITHMS[n].packet is not None
    }
    return sorted(canonical | set(_REGISTRY))
