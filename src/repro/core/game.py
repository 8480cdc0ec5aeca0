"""The CCA-selection game (§4.1–§4.5): one game, asked in rounds.

Flows choose between an incumbent CCA (strategy A, e.g. CUBIC) and a
challenger (strategy B, e.g. BBR); a distribution is a Nash Equilibrium
iff no flow gains by unilaterally switching (§4.4).  Flows that share a
base RTT are symmetric, so a *state* is the tuple of per-group challenger
counts — the same-RTT game of §4.1 is the game with one group, the
multi-RTT game of §4.5 has one group per RTT class.

:class:`GroupGame` is that game, and the only one: one NE predicate, one
best-response rule, one walk.  It asks its payoff function for *rounds*
— every state a question needs and does not know yet, in one call — so
a simulator-backed payoff (``repro.experiments.runner``) turns a
best-response step, an NE check or a whole table into one engine batch.
:func:`bisect_rounds` finds the same-RTT NE with O(log N) probes — as a
round generator (:mod:`repro.util.rounds`), :func:`bisect_nash` being
one search driven alone — and :class:`ThroughputTable` is a played-out
same-RTT game as two columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Dict, Generator, Iterable, List, Sequence, Tuple

from repro.util.rounds import drive

#: The number of challenger (strategy-B) flows in each group.
State = Tuple[int, ...]
#: One state's payoffs: per group, the per-flow payoff of its
#: (strategy-A, strategy-B) flows.  An empty class may read 0.0.
Payoffs = Sequence[Tuple[float, float]]
#: ``payoff(*states)`` answers a round: one :data:`Payoffs` per state,
#: in order.  A per-state function ``fn`` is adapted by its caller:
#: ``lambda *states: [fn(state) for state in states]``.
PayoffFn = Callable[..., Sequence[Payoffs]]


@dataclass
class GroupGame:
    """The CCA game between groups of symmetric flows.

    ``sizes[g]`` flows form group ``g``; the state space is the
    ``Π(n_g + 1)`` tuples of per-group challenger counts (symmetry
    within a group collapses the paper's ``2^n`` joint strategies, as
    in its §4.5 three-group experiments).  What tells groups apart —
    their RTTs — belongs to whoever builds ``payoff``.

    A switch *pays* when ``after > here + tolerance`` (payoff units);
    every question below is asked through that one inequality.
    """

    sizes: Sequence[int]
    payoff: PayoffFn
    tolerance: float = 0.0
    #: Every state evaluated so far, in evaluation order.
    known: Dict[State, Payoffs] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        self.sizes = tuple(self.sizes)
        if not self.sizes or min(self.sizes) < 1:
            raise ValueError(
                f"need at least one group, each of size >= 1, "
                f"got sizes {self.sizes}"
            )

    def payoffs(self, *states: State) -> List[Payoffs]:
        """The payoffs of ``states``, in order — one round.

        The only place a state is validated, remembered or evaluated:
        every state is checked against the game before anything is
        asked, and the payoff function receives exactly the states not
        known yet, once each, in a single call.
        """
        for state in states:
            if len(state) != len(self.sizes) or not all(
                0 <= k <= size for k, size in zip(state, self.sizes)
            ):
                raise ValueError(
                    f"state {state} is outside the game: need one challenger "
                    f"count in [0, size] per group of sizes {self.sizes}"
                )
        unknown = self.unknown(states)
        if unknown:
            self.known.update(zip(unknown, self.payoff(*unknown)))
        return [self.known[state] for state in states]

    def unknown(self, states: Iterable[State]) -> List[State]:
        """Those of ``states`` not evaluated yet, once each, in order —
        what a round still has to ask the payoff function."""
        return [s for s in dict.fromkeys(states) if s not in self.known]

    def states(self) -> Iterable[State]:
        """Every distribution of the challenger across the groups."""
        return product(*(range(size + 1) for size in self.sizes))

    def improvements(self, state: State) -> List[Tuple[float, State]]:
        """The unilateral switches from ``state`` that pay, as
        ``(gain, resulting state)`` — the one deviation rule.

        Per group, lowest first: an incumbent flow switching to the
        challenger, then a challenger flow switching back.  The state
        and its ≤ 2·G neighbours are one round.
        """
        moves = [
            (g, side, state[:g] + (k + step,) + state[g + 1:])
            for g, (k, size) in enumerate(zip(state, self.sizes))
            for side, step in ((0, +1), (1, -1))  # The mover plays `side`.
            if 0 <= k + step <= size
        ]
        here, *there = self.payoffs(state, *(move[2] for move in moves))
        return [
            (after[g][1 - side] - here[g][side], switched)
            for (g, side, switched), after in zip(moves, there)
            if after[g][1 - side] > here[g][side] + self.tolerance
        ]

    def is_nash(self, state: State) -> bool:
        """§4.4: no single flow in any group gains by switching."""
        return not self.improvements(state)

    def nash_equilibria(self) -> List[State]:
        """Every NE, exhaustively — the whole table is one round."""
        states = list(self.states())
        self.payoffs(*states)
        return [state for state in states if self.is_nash(state)]

    def best_response_step(self, state: State) -> State:
        """One unilateral switch: the one that gains most (ties go to
        the first in :meth:`improvements` order), or ``state`` itself
        at an NE."""
        moves = self.improvements(state)
        return max(moves, key=lambda move: move[0])[1] if moves else state

    def best_response_path(
        self, start: State, max_steps: int = 1000
    ) -> List[State]:
        """Best-response dynamics from ``start`` until nothing pays.

        Models the Internet-evolution narrative: websites switch CCA one
        at a time while the rest hold still.  The last state is an NE —
        or, when noisy payoffs make the dynamics cycle, the first state
        visited twice, where the walk is cut.
        """
        path = [start]
        seen = set(path)
        for _ in range(max_steps):
            nxt = self.best_response_step(path[-1])
            if nxt == path[-1]:
                break
            path.append(nxt)
            if nxt in seen:
                break
            seen.add(nxt)
        return path

    def settle(self, starts: Iterable[State]) -> List[State]:
        """Where best-response walks from ``starts`` end up: their
        distinct final states that are NE, sorted — or, when every walk
        was cut in a cycle, the smallest final state as a best effort."""
        ends = sorted({self.best_response_path(s)[-1] for s in starts})
        return [end for end in ends if self.is_nash(end)] or ends[:1]


#: What a bisection finds: the NE challenger counts and every
#: distribution evaluated, ``{k: (λ_a, λ_b)}``.
Found = Tuple[List[int], Dict[int, Tuple[float, float]]]


def bisect_rounds(game: GroupGame) -> Generator[List[State], None, Found]:
    """Find NE of a same-RTT (one-group) game with O(log N) probes.

    Exploits the paper's structural result (Figure 6): the challenger's
    per-flow advantage ``λ_b(k) − λ_a(k)`` decreases in ``k`` and
    crosses zero at most once, so the crossing can be bisected — one
    probe per round — and only its neighbourhood, fetched as one more
    round, needs exact NE checks.  Before each ``game.payoffs`` call
    the states it is about to ask for are yielded, so a driver of
    several searches can evaluate a round of them all as one batch into
    ``game.known`` (what is still unknown is evaluated on demand).
    """
    (n_flows,) = game.sizes

    def advantage(k: int) -> Generator[List[State], None, float]:
        yield [(k,)]
        [[(a, b)]] = game.payoffs((k,))
        return b - a

    lo, hi = 1, n_flows - 1
    if n_flows <= 2 or (yield from advantage(lo)) <= 0:
        first, last = 0, min(n_flows, 2)
    elif (yield from advantage(hi)) >= 0:
        first, last = n_flows - 2, n_flows
    else:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if (yield from advantage(mid)) >= 0:
                lo = mid
            else:
                hi = mid
        first, last = lo - 1, hi + 1  # 1 <= lo < hi <= n_flows - 1.
    around = [
        (k,) for k in range(max(0, first - 1), min(n_flows, last + 1) + 1)
    ]
    yield around
    game.payoffs(*around)
    equilibria = [k for k in range(first, last + 1) if game.is_nash((k,))]
    return equilibria, {k: pairs[0] for (k,), pairs in game.known.items()}


def bisect_nash(game: GroupGame) -> Found:
    """:func:`bisect_rounds` as one search on its own: each round is
    evaluated by ``game.payoffs`` as the search reaches it."""
    return drive(bisect_rounds(game), lambda states: None)


@dataclass
class ThroughputTable:
    """A played-out same-RTT game: per-flow payoffs at all ``n + 1``
    distributions of two CCAs.

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
    def from_game(cls, game: GroupGame) -> "ThroughputTable":
        """Play every distribution of a one-group game — one round."""
        (n_flows,) = game.sizes
        pairs = [row[0] for row in game.payoffs(*game.states())]
        lambda_a, lambda_b = map(list, zip(*pairs))
        return cls(n_flows, lambda_a, lambda_b)

    def game(self, tolerance: float = 0.0) -> GroupGame:
        """The game this table records, to ask questions of it."""
        return GroupGame(
            [self.n_flows],
            lambda *states: [
                [(self.lambda_a[k], self.lambda_b[k])] for (k,) in states
            ],
            tolerance,
        )


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
