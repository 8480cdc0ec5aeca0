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

from repro.scenario.spec import CoDelSpec, REDSpec


class RED:
    """RED drop decision state for one queue.

    Built from a :class:`~repro.scenario.spec.REDSpec` and the buffer
    it guards: the spec's threshold fractions become byte thresholds
    (``min_frac × buffer_bytes``, ``max_frac × buffer_bytes``).
    """

    def __init__(self, spec: REDSpec, buffer_bytes: float) -> None:
        self.min_threshold = spec.min_frac * buffer_bytes
        self.max_threshold = spec.max_frac * buffer_bytes
        self.max_p = spec.max_p
        self.weight = spec.weight
        self._rng = random.Random(spec.seed)
        self.avg = 0.0
        self._count = -1  # Packets since the last early drop.

    def should_drop(self, queue_bytes: float) -> bool:
        """Update the average with the instantaneous queue and decide.

        Called once per packet arrival, *before* enqueueing.
        """
        weight = self.weight
        self.avg = (1.0 - weight) * self.avg + weight * queue_bytes
        if self.avg < self.min_threshold:
            self._count = -1
            return False
        if self.avg >= self.max_threshold:
            self._count = 0
            return True
        self._count += 1
        base_p = (
            self.max_p
            * (self.avg - self.min_threshold)
            / (self.max_threshold - self.min_threshold)
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

    def __init__(self, spec: CoDelSpec = CoDelSpec()) -> None:
        self.target = spec.target
        self.interval = spec.interval
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
        interval = self.interval
        ok_to_drop = self._update_first_above(now, sojourn)
        if self._dropping:
            if not ok_to_drop:
                self._dropping = False
            elif now >= self._drop_next:
                self._count += 1
                self._drop_next = now + interval / math.sqrt(self._count)
                return True
            return False
        if ok_to_drop and (
            now - self._drop_next < interval
            or now - self._first_above_time >= interval
        ):
            self._dropping = True
            # Resume near the previous drop rate if we dropped recently.
            if now - self._drop_next < interval:
                self._count = max(self._count - 2, 1)
            else:
                self._count = 1
            self._drop_next = now + interval / math.sqrt(self._count)
            return True
        return False

    def _update_first_above(self, now: float, sojourn: float) -> bool:
        if sojourn < self.target:
            self._first_above_time = 0.0
            return False
        if self._first_above_time == 0.0:
            self._first_above_time = now + self.interval
            return False
        return now >= self._first_above_time
