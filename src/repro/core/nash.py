"""Nash-equilibrium prediction from the throughput model (§4.1, Eq. 25).

The CCA-selection game: each of ``N`` same-RTT flows picks CUBIC or BBR to
maximize its own throughput.  Because flows are symmetric there are only
``N + 1`` distributions, indexed by the number of BBR flows ``N_b``.  The
paper shows (Figure 6) that the per-flow BBR bandwidth line crosses the
fair-share line ``C/N`` from above, and the crossing point C is a stable
mixed Nash Equilibrium: the NE distribution is the ``N_b`` solving

    λ̄_b(N_b) / N_b = C / N                                  (25)

For the synchronized bound λ̄_b does not depend on the split, so Eq. 25 is
explicit; for the de-synchronized bound λ̄_b depends on ``N_c = N − N_b``
and the crossing is found by a fixed-point scan.  The pair of solutions
forms the "Nash Region" of Figure 9, which — once the buffer is measured
in BDP — depends on neither the link capacity nor the RTT alone (§4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.core.multi_flow import (
    aggregate_bbr_bandwidth,
    desync_backoff,
)
from repro.core.two_flow import CUBIC_BACKOFF, DEEP_BUFFER_LIMIT_BDP
from repro.scenario.spec import BottleneckSpec


@dataclass(frozen=True)
class NashPrediction:
    """Predicted NE distribution for ``n_flows`` same-RTT flows.

    ``n_bbr_*`` are the continuous solutions of Eq. 25 under each
    synchronization bound; ``n_cubic_*`` are their complements.  The
    predicted *Nash Region* in Figure 9's axes (number of CUBIC flows at
    the NE vs. buffer depth) spans ``[n_cubic_low, n_cubic_high]``.
    """

    n_flows: int
    n_bbr_sync: float
    n_bbr_desync: float
    in_validity_range: bool

    @property
    def n_cubic_sync(self) -> float:
        """CUBIC flows at the NE under the synchronized bound."""
        return self.n_flows - self.n_bbr_sync

    @property
    def n_cubic_desync(self) -> float:
        """CUBIC flows at the NE under the de-synchronized bound."""
        return self.n_flows - self.n_bbr_desync

    @property
    def n_cubic_low(self) -> float:
        """Lower edge of the Nash Region in CUBIC flows."""
        return min(self.n_cubic_sync, self.n_cubic_desync)

    @property
    def n_cubic_high(self) -> float:
        """Upper edge of the Nash Region in CUBIC flows."""
        return max(self.n_cubic_sync, self.n_cubic_desync)


def _solve_fixed_point_desync(link: BottleneckSpec, n_flows: int) -> float:
    """Find ``N_b`` with λ̄_b(N_b)/N_b = C/N under the desync bound.

    ``λ̄_b`` depends on ``N_c = N − N_b`` through the aggregate backoff
    factor, so Eq. 25 is solved by a damped fixed-point iteration
    ``N_b ← N·λ̄_b(N_b)/C`` (the map is a contraction in practice since
    the backoff factor varies slowly with ``N_c``).
    """
    c = link.capacity
    n_b = n_flows / 2.0
    for _ in range(200):
        n_c = max(n_flows - n_b, 0.0)
        if n_c < 1.0:
            # Fewer than one CUBIC flow left: the NE is all-BBR.
            return float(n_flows)
        backoff = desync_backoff(max(int(round(n_c)), 1))
        agg = aggregate_bbr_bandwidth(link, int(round(n_c)), backoff)
        nxt = n_flows * agg / c
        if abs(nxt - n_b) < 1e-6:
            return nxt
        n_b = 0.5 * n_b + 0.5 * nxt
    return n_b


def predict_nash(link: BottleneckSpec, n_flows: int) -> NashPrediction:
    """Predict the NE distribution of CUBIC and BBR flows (Eq. 25)."""
    if n_flows < 1:
        raise ValueError(f"n_flows must be >= 1, got {n_flows}")
    c = link.capacity
    in_range = 1.0 <= link.buffer_bdp <= DEEP_BUFFER_LIMIT_BDP

    if link.buffer_bdp <= 1.0:
        # Shallow buffer: BBR starves CUBIC entirely; the NE is all-BBR.
        return NashPrediction(
            n_flows=n_flows,
            n_bbr_sync=float(n_flows),
            n_bbr_desync=float(n_flows),
            in_validity_range=in_range,
        )

    # Synchronized bound: λ̄_b is independent of the split, so Eq. 25 gives
    # N_b directly.  A CUBIC aggregate exists whenever N_b < N, so use the
    # single-aggregate solver (n_cubic only matters via the backoff, which
    # is 0.7 regardless of N_c when synchronized).
    agg_sync = aggregate_bbr_bandwidth(link, 1, CUBIC_BACKOFF)
    n_bbr_sync = min(n_flows * agg_sync / c, float(n_flows))

    n_bbr_desync = min(
        _solve_fixed_point_desync(link, n_flows), float(n_flows)
    )
    return NashPrediction(
        n_flows=n_flows,
        n_bbr_sync=n_bbr_sync,
        n_bbr_desync=n_bbr_desync,
        in_validity_range=in_range,
    )


@dataclass(frozen=True)
class NashRegionPoint:
    """One buffer depth of the Figure-9 Nash Region."""

    buffer_bdp: float
    n_cubic_sync: float
    n_cubic_desync: float
    in_validity_range: bool


def nash_region(
    link: BottleneckSpec, n_flows: int, buffer_bdps: Iterable[float]
) -> List[NashRegionPoint]:
    """The predicted Nash Region across a buffer-depth sweep (Figure 9)."""
    points = []
    for depth in buffer_bdps:
        prediction = predict_nash(link.with_buffer_bdp(depth), n_flows)
        points.append(
            NashRegionPoint(
                buffer_bdp=depth,
                n_cubic_sync=prediction.n_cubic_sync,
                n_cubic_desync=prediction.n_cubic_desync,
                in_validity_range=prediction.in_validity_range,
            )
        )
    return points
