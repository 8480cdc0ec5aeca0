"""The CCA-selection game: empirical NE search and dynamics (§4.1, §4.4).

This module implements the paper's *experimental* methodology: measure (or
model) per-flow throughput for every distribution of two competing CCAs,
then enumerate distributions where no single flow can gain by unilaterally
switching.  It also provides best-response dynamics (the "Internet
evolution" story of §1), a bisection search that finds the NE with
O(log N) throughput evaluations for expensive simulator backends, and the
multi-RTT group game of §4.5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

#: A throughput provider: distribution (number of strategy-B flows) →
#: (per-flow bandwidth of strategy-A flows, per-flow bandwidth of
#: strategy-B flows).  Entries for empty classes may be 0.0.
ThroughputFn = Callable[[int], Tuple[float, float]]


@dataclass
class ThroughputTable:
    """Per-flow throughput for all ``n + 1`` distributions of two CCAs.

    ``lambda_a[k]`` / ``lambda_b[k]`` are the per-flow bandwidths of
    strategy-A (e.g. CUBIC) and strategy-B (e.g. BBR) flows when ``k``
    flows play strategy B.  Conventionally A is the incumbent (CUBIC).
    """

    n_flows: int
    lambda_a: List[float]
    lambda_b: List[float]

    def __post_init__(self) -> None:
        expected = self.n_flows + 1
        if len(self.lambda_a) != expected or len(self.lambda_b) != expected:
            raise ValueError(
                f"need {expected} entries per strategy, got "
                f"{len(self.lambda_a)}/{len(self.lambda_b)}"
            )

    @classmethod
    def from_function(
        cls, n_flows: int, fn: ThroughputFn
    ) -> "ThroughputTable":
        """Evaluate ``fn`` for every distribution 0..n."""
        lambda_a, lambda_b = [], []
        for k in range(n_flows + 1):
            a, b = fn(k)
            lambda_a.append(a)
            lambda_b.append(b)
        return cls(n_flows=n_flows, lambda_a=lambda_a, lambda_b=lambda_b)

    def is_nash(self, k: int, tolerance: float = 0.0) -> bool:
        """Whether the distribution with ``k`` strategy-B flows is an NE.

        §4.4's check: no B flow gains by switching to A
        (``λ_b(k) ≥ λ_a(k−1)``) and no A flow gains by switching to B
        (``λ_a(k) ≥ λ_b(k+1)``), within ``tolerance`` (bytes/second).
        """
        if not 0 <= k <= self.n_flows:
            raise ValueError(f"k must be in [0, {self.n_flows}], got {k}")
        if k > 0 and self.lambda_b[k] < self.lambda_a[k - 1] - tolerance:
            return False
        if (
            k < self.n_flows
            and self.lambda_a[k] < self.lambda_b[k + 1] - tolerance
        ):
            return False
        return True

    def nash_equilibria(self, tolerance: float = 0.0) -> List[int]:
        """All NE distributions (it is common for several to qualify)."""
        return [
            k
            for k in range(self.n_flows + 1)
            if self.is_nash(k, tolerance)
        ]

    def best_response_step(self, k: int) -> int:
        """One round of unilateral switching from distribution ``k``.

        A strategy-A flow switches to B when that raises its bandwidth,
        and vice versa; ties stay put.  Returns the next distribution.
        """
        if k < self.n_flows and self.lambda_b[k + 1] > self.lambda_a[k]:
            return k + 1
        if k > 0 and self.lambda_a[k - 1] > self.lambda_b[k]:
            return k - 1
        return k

    def best_response_path(
        self, start: int, max_steps: int = 1000
    ) -> List[int]:
        """Trajectory of best-response dynamics until it stops moving.

        Models the Internet-evolution narrative: websites switch CCA one
        at a time while the rest hold still.  The final element is an NE
        (or the last state before a cycle was cut off).
        """
        path = [start]
        seen = {start}
        k = start
        for _ in range(max_steps):
            nxt = self.best_response_step(k)
            if nxt == k:
                break
            path.append(nxt)
            k = nxt
            if k in seen:
                break  # Cycle (possible only with measurement noise).
            seen.add(k)
        return path


def bisect_nash(
    n_flows: int,
    fn: ThroughputFn,
    tolerance: float = 0.0,
) -> Tuple[List[int], Dict[int, Tuple[float, float]]]:
    """Find NE distributions with O(log N) evaluations of ``fn``.

    Exploits the paper's structural result (Figure 6): BBR's per-flow
    advantage ``λ_b(k) − λ_a(k)`` decreases in ``k`` and crosses zero at
    most once, so the crossing can be bisected and only its neighborhood
    needs exact NE checks.  Returns the NE list and a cache of evaluated
    distributions (useful for reporting).
    """
    cache: Dict[int, Tuple[float, float]] = {}

    def evaluate(k: int) -> Tuple[float, float]:
        if k not in cache:
            cache[k] = fn(k)
        return cache[k]

    def advantage(k: int) -> float:
        a, b = evaluate(k)
        if k == 0:
            return float("inf")  # No B flows: switching in is the question.
        if k == n_flows:
            return float("-inf")
        return b - a

    lo, hi = 1, n_flows - 1
    if n_flows <= 2 or advantage(lo) <= 0:
        candidates = range(0, min(n_flows, 2) + 1)
    elif advantage(hi) >= 0:
        candidates = range(max(0, n_flows - 2), n_flows + 1)
    else:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if advantage(mid) >= 0:
                lo = mid
            else:
                hi = mid
        candidates = range(max(0, lo - 1), min(n_flows, hi + 1) + 1)

    equilibria = []
    for k in candidates:
        a_k, b_k = evaluate(k)
        ok = True
        if k > 0:
            a_prev, _ = evaluate(k - 1)
            ok = ok and b_k >= a_prev - tolerance
        if k < n_flows:
            _, b_next = evaluate(k + 1)
            ok = ok and a_k >= b_next - tolerance
        if ok:
            equilibria.append(k)
    return equilibria, cache


def ne_existence_conditions(
    table: ThroughputTable, capacity: float
) -> Dict[str, bool]:
    """Check §4.2's two sufficient conditions for an NE against CUBIC.

    For a challenger CCA ``X`` (strategy B) the paper's argument needs:

    1. ``disproportionate_share`` — at some distribution a minority of X
       flows gets more than its fair share (point A above the line);
    2. ``fills_link_alone`` — the all-X distribution delivers (roughly)
       the fair share per flow, i.e. X utilizes the link (point B).

    When both hold, the A→B line either stays above fair share (all-X is
    the NE) or crosses it (a mixed NE) — an NE exists either way.  Copa
    fails condition 1 in the paper's Figure 7, which is why it expects
    no interior NE for Copa.

    Returns the two flags plus ``ne_expected`` (their conjunction).
    """
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    fair = capacity / table.n_flows
    disproportionate = any(
        table.lambda_b[k] > fair for k in range(1, table.n_flows)
    )
    fills_link_alone = table.lambda_b[table.n_flows] >= 0.8 * fair
    return {
        "disproportionate_share": disproportionate,
        "fills_link_alone": fills_link_alone,
        "ne_expected": disproportionate and fills_link_alone,
    }


# -- Multi-RTT group game (§4.5) ----------------------------------------------


@dataclass(frozen=True)
class FlowGroup:
    """A class of symmetric flows sharing one base RTT."""

    rtt: float
    size: int

    def __post_init__(self) -> None:
        if self.rtt <= 0:
            raise ValueError(f"rtt must be positive, got {self.rtt}")
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")


#: Group-game payoffs: per-group (per-flow λ of strategy-A flows,
#: per-flow λ of strategy-B flows) for a given assignment of strategy-B
#: counts per group.
GroupPayoffFn = Callable[[Tuple[int, ...]], Sequence[Tuple[float, float]]]


@dataclass
class GroupGame:
    """The CCA game between flow groups with different base RTTs.

    The state space is the tuple of per-group strategy-B counts
    (flows within a group are symmetric, which collapses the paper's
    ``2^n`` joint strategies to ``Π(n_g + 1)`` states, as in its §4.5
    three-group experiments).
    """

    groups: Sequence[FlowGroup]
    payoff: GroupPayoffFn
    tolerance: float = 0.0
    _cache: Dict[Tuple[int, ...], Sequence[Tuple[float, float]]] = field(
        default_factory=dict, repr=False
    )

    def payoffs(
        self, state: Tuple[int, ...]
    ) -> Sequence[Tuple[float, float]]:
        """Per-group (strategy-A, strategy-B) per-flow payoffs, cached."""
        if state not in self._cache:
            self._cache[state] = self.payoff(state)
        return self._cache[state]

    def states(self) -> Iterable[Tuple[int, ...]]:
        """Every distribution of strategy B across the groups."""

        def recurse(idx: int, prefix: Tuple[int, ...]):
            if idx == len(self.groups):
                yield prefix
                return
            for k in range(self.groups[idx].size + 1):
                yield from recurse(idx + 1, prefix + (k,))

        return recurse(0, ())

    def is_nash(self, state: Tuple[int, ...]) -> bool:
        """No single flow in any group gains by unilaterally switching."""
        payoffs = self.payoffs(state)
        for g, group in enumerate(self.groups):
            k = state[g]
            # A strategy-A flow in group g considers switching to B.
            if k < group.size:
                switched = state[:g] + (k + 1,) + state[g + 1:]
                if (
                    self.payoffs(switched)[g][1]
                    > payoffs[g][0] + self.tolerance
                ):
                    return False
            # A strategy-B flow in group g considers switching to A.
            if k > 0:
                switched = state[:g] + (k - 1,) + state[g + 1:]
                if (
                    self.payoffs(switched)[g][0]
                    > payoffs[g][1] + self.tolerance
                ):
                    return False
        return True

    def nash_equilibria(self) -> List[Tuple[int, ...]]:
        """Enumerate all NE states (exhaustive; cache keeps it feasible)."""
        return [s for s in self.states() if self.is_nash(s)]

    def best_response_path(
        self, start: Tuple[int, ...], max_steps: int = 1000
    ) -> List[Tuple[int, ...]]:
        """Greedy best-response dynamics from ``start`` until stable."""
        path = [start]
        state = start
        for _ in range(max_steps):
            nxt = self._best_response_step(state)
            if nxt == state:
                break
            path.append(nxt)
            state = nxt
        return path

    def _best_response_step(
        self, state: Tuple[int, ...]
    ) -> Tuple[int, ...]:
        payoffs = self.payoffs(state)
        best_gain = self.tolerance
        best_state = state
        for g, group in enumerate(self.groups):
            k = state[g]
            if k < group.size:
                switched = state[:g] + (k + 1,) + state[g + 1:]
                gain = self.payoffs(switched)[g][1] - payoffs[g][0]
                if gain > best_gain:
                    best_gain, best_state = gain, switched
            if k > 0:
                switched = state[:g] + (k - 1,) + state[g + 1:]
                gain = self.payoffs(switched)[g][0] - payoffs[g][1]
                if gain > best_gain:
                    best_gain, best_state = gain, switched
        return best_state
