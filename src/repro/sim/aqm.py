"""Active queue management: RED and CoDel.

The paper's discussion (§5 "Taming the Zoo", and the Chien & Sinclair
result it cites — NE efficiency between TCP variants differs between
drop-tail and RED buffers) motivates asking how the CUBIC/BBR game
changes under AQM.  This module provides two disciplines the
packet-level bottleneck can run on top of its drop-tail buffer: classic
RED (tail early-drop on an averaged queue *size*) and CoDel (head drop
on packet *sojourn time*, RFC 8289).  Both expose the same two-hook
interface the :class:`repro.sim.link.Link` calls:
``on_enqueue(queue_bytes)`` and ``on_dequeue(now, sojourn)``, and say
which of the two they act on (``acts_on_enqueue`` /
``acts_on_dequeue``), so the link calls only that one.

RED:

* an EWMA of the queue size is maintained on every arrival;
* below ``min_threshold`` packets are always accepted;
* above ``max_threshold`` they are always dropped;
* in between they are dropped with probability ramping to ``max_p``,
  spread out by the standard ``count`` correction so drops are roughly
  uniformly spaced rather than bursty.

(Floyd & Jacobson 1993, with the "gentle" region omitted for clarity.)
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class REDConfig:
    """RED parameters, in bytes.

    Attributes:
        min_threshold: EWMA queue size below which nothing is dropped.
        max_threshold: EWMA queue size above which everything is dropped.
        max_p: Drop probability as the EWMA reaches ``max_threshold``.
        weight: EWMA weight for queue-size averaging (Floyd's w_q).
        seed: RNG seed for the drop lottery (determinism across runs).
    """

    min_threshold: float
    max_threshold: float
    max_p: float = 0.1
    weight: float = 0.002
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.min_threshold < self.max_threshold:
            raise ValueError(
                "need 0 < min_threshold < max_threshold, got "
                f"{self.min_threshold}/{self.max_threshold}"
            )
        if not 0 < self.max_p <= 1:
            raise ValueError(f"max_p must be in (0, 1], got {self.max_p}")
        if not 0 < self.weight <= 1:
            raise ValueError(
                f"weight must be in (0, 1], got {self.weight}"
            )

    @classmethod
    def for_buffer(
        cls, buffer_bytes: float, seed: int = 0
    ) -> "REDConfig":
        """Floyd's rule-of-thumb thresholds for a given physical buffer:
        min at 1/6 of the buffer, max at 1/2 (max = 3 × min)."""
        return cls(
            min_threshold=buffer_bytes / 6.0,
            max_threshold=buffer_bytes / 2.0,
            seed=seed,
        )


class RED:
    """RED drop decision state for one queue."""

    def __init__(self, config: REDConfig) -> None:
        self.config = config
        self._rng = random.Random(config.seed)
        self.avg = 0.0
        self._count = -1  # Packets since the last early drop.

    def should_drop(self, queue_bytes: float) -> bool:
        """Update the average with the instantaneous queue and decide.

        Called once per packet arrival, *before* enqueueing.
        """
        cfg = self.config
        self.avg = (1.0 - cfg.weight) * self.avg + cfg.weight * queue_bytes
        if self.avg < cfg.min_threshold:
            self._count = -1
            return False
        if self.avg >= cfg.max_threshold:
            self._count = 0
            return True
        self._count += 1
        base_p = (
            cfg.max_p
            * (self.avg - cfg.min_threshold)
            / (cfg.max_threshold - cfg.min_threshold)
        )
        # Floyd's uniformization: p_a = p_b / (1 − count·p_b).
        denominator = 1.0 - self._count * base_p
        drop_p = base_p / denominator if denominator > 0 else 1.0
        if self._rng.random() < drop_p:
            self._count = 0
            return True
        return False

    # -- unified AQM interface used by the Link --------------------------

    #: RED acts at the tail (early detection), never at the head.
    acts_on_enqueue = True
    acts_on_dequeue = False

    on_enqueue = should_drop

    def on_dequeue(self, now: float, sojourn: float) -> bool:
        """RED never drops at dequeue."""
        return False


@dataclass(frozen=True)
class CoDelConfig:
    """CoDel parameters (RFC 8289 defaults).

    Attributes:
        target: Acceptable standing queue delay (sojourn), seconds.
        interval: Sliding window over which the sojourn must stay above
            target before dropping starts, seconds (≈ a worst-case RTT).
    """

    target: float = 0.005
    interval: float = 0.100

    def __post_init__(self) -> None:
        if self.target <= 0:
            raise ValueError(f"target must be positive, got {self.target}")
        if self.interval <= self.target:
            raise ValueError(
                "interval must exceed target, got "
                f"{self.interval} <= {self.target}"
            )


class CoDel:
    """Controlled-Delay AQM (Nichols & Jacobson, RFC 8289, simplified).

    CoDel measures each packet's *sojourn time* through the queue and
    enters a dropping state when the sojourn has exceeded ``target`` for
    a full ``interval``; while dropping, drops are spaced at
    ``interval/√count``, which backs loss-based senders off just enough
    to hold the standing queue near ``target``.  Deployed widely (fq_codel
    is the Linux default qdisc) — the natural "modern AQM" to test the
    paper's "Taming the Zoo" question against.
    """

    def __init__(self, config: Optional[CoDelConfig] = None) -> None:
        self.config = config if config is not None else CoDelConfig()
        self._first_above_time = 0.0
        self._dropping = False
        self._drop_next = 0.0
        self._count = 0

    #: CoDel acts at the head (sojourn time), never at the tail.
    acts_on_enqueue = False
    acts_on_dequeue = True

    def on_enqueue(self, queue_bytes: float) -> bool:
        """CoDel never drops at enqueue (head-drop discipline)."""
        return False

    def on_dequeue(self, now: float, sojourn: float) -> bool:
        """Decide whether the packet now exiting the queue is dropped."""
        cfg = self.config
        ok_to_drop = self._update_first_above(now, sojourn)
        if self._dropping:
            if not ok_to_drop:
                self._dropping = False
            elif now >= self._drop_next:
                self._count += 1
                self._drop_next = now + cfg.interval / math.sqrt(
                    self._count
                )
                return True
            return False
        if ok_to_drop and (
            now - self._drop_next < cfg.interval
            or now - self._first_above_time >= cfg.interval
        ):
            self._dropping = True
            # Resume near the previous drop rate if we dropped recently.
            if now - self._drop_next < cfg.interval:
                self._count = max(self._count - 2, 1)
            else:
                self._count = 1
            self._drop_next = now + cfg.interval / math.sqrt(self._count)
            return True
        return False

    def _update_first_above(self, now: float, sojourn: float) -> bool:
        cfg = self.config
        if sojourn < cfg.target:
            self._first_above_time = 0.0
            return False
        if self._first_above_time == 0.0:
            self._first_above_time = now + cfg.interval
            return False
        return now >= self._first_above_time
