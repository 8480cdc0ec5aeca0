"""The multi-flow model (§2.4, Equations 21–24).

With ``N_c`` CUBIC and ``N_b`` BBR flows of equal base RTT, the paper
models each class as one aggregate flow and re-uses the 2-flow machinery.
The only change is CUBIC's aggregate backoff behaviour, which depends on
how synchronized the individual CUBIC flows' losses are:

* **Synchronized** (Eq. 21): every CUBIC flow backs off together, so the
  aggregate falls to ``0.7 × Ŵ_max`` — identical to the 2-flow model.
  This is the *lower* bound on CUBIC's minimum buffer occupancy, hence
  the least RTT bloat for BBR and the *lower* bound on BBR's bandwidth.
* **De-synchronized** (Eq. 22): only one of the ``N_c`` flows backs off at
  a time, so the aggregate falls only to ``(N_c − 0.3)/N_c × Ŵ_max`` —
  the *upper* bound on ``b_cmin`` and on BBR's bandwidth.

The pair of bounds forms the "Predicted Region" of Figures 4 and 5; the
empirical mean lands inside it, nearer one edge or the other depending on
how synchronized the CUBIC flows actually were.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.two_flow import (
    CUBIC_BACKOFF,
    DEEP_BUFFER_LIMIT_BDP,
    solve_bbr_buffer_share,
)
from repro.scenario.spec import BottleneckSpec


def desync_backoff(n_cubic: int) -> float:
    """Aggregate backoff factor when only one of ``n_cubic`` flows cuts.

    Equation (22)'s ``(N_c − 0.3)/N_c``: a single flow's 0.3 reduction
    diluted across the aggregate.  Reduces to 0.7 for one CUBIC flow.
    """
    if n_cubic < 1:
        raise ValueError(f"n_cubic must be >= 1, got {n_cubic}")
    return (n_cubic - 0.3) / n_cubic


@dataclass(frozen=True)
class MultiFlowPrediction:
    """Aggregate and per-flow bandwidth bounds for one flow mix.

    ``*_sync`` values use the synchronized-CUBIC bound (Eq. 21),
    ``*_desync`` the de-synchronized bound (Eq. 22).  Bandwidths are in
    bytes/second.  ``per_flow_*`` divide the aggregates by the class sizes
    (Eqs. 23–24); they are 0.0 for an empty class.
    """

    n_cubic: int
    n_bbr: int
    bbr_aggregate_sync: float
    bbr_aggregate_desync: float
    cubic_aggregate_sync: float
    cubic_aggregate_desync: float
    in_validity_range: bool

    @property
    def per_flow_bbr_sync(self) -> float:
        """Per-flow BBR bandwidth under the synchronized bound (Eq. 23)."""
        return self.bbr_aggregate_sync / self.n_bbr if self.n_bbr else 0.0

    @property
    def per_flow_bbr_desync(self) -> float:
        """Per-flow BBR bandwidth under the de-synchronized bound."""
        return self.bbr_aggregate_desync / self.n_bbr if self.n_bbr else 0.0

    @property
    def per_flow_cubic_sync(self) -> float:
        """Per-flow CUBIC bandwidth under the synchronized bound (Eq. 24)."""
        return (
            self.cubic_aggregate_sync / self.n_cubic if self.n_cubic else 0.0
        )

    @property
    def per_flow_cubic_desync(self) -> float:
        """Per-flow CUBIC bandwidth under the de-synchronized bound."""
        return (
            self.cubic_aggregate_desync / self.n_cubic
            if self.n_cubic
            else 0.0
        )

    def per_flow_bbr_bounds(self) -> tuple:
        """(low, high) per-flow BBR bandwidth — the Predicted Region."""
        lo = min(self.per_flow_bbr_sync, self.per_flow_bbr_desync)
        hi = max(self.per_flow_bbr_sync, self.per_flow_bbr_desync)
        return (lo, hi)


def aggregate_bbr_bandwidth(
    link: BottleneckSpec, n_cubic: int, backoff: float
) -> float:
    """Aggregate BBR bandwidth ``λ̄_b`` for a given CUBIC backoff factor.

    Runs the 2-flow solver with the aggregate backoff (Eq. 21 or 22); the
    proportional-share reduction of Eq. 19 gives ``λ̄_b = C · b_b / B``.
    """
    if n_cubic == 0:
        # All-BBR: the aggregate takes the whole link (§4.1, point B).
        return link.capacity
    bbr_buffer = solve_bbr_buffer_share(link, backoff=backoff)
    return link.capacity * bbr_buffer / link.buffer_bytes


def predict_multi_flow(
    link: BottleneckSpec, n_cubic: int, n_bbr: int
) -> MultiFlowPrediction:
    """Predict aggregate/per-flow bandwidth bounds for a flow mix (§2.4)."""
    if n_cubic < 0 or n_bbr < 0:
        raise ValueError("flow counts must be non-negative")
    if n_cubic + n_bbr == 0:
        raise ValueError("at least one flow is required")
    c = link.capacity
    in_range = 1.0 <= link.buffer_bdp <= DEEP_BUFFER_LIMIT_BDP

    if n_bbr == 0:
        # All-CUBIC: the aggregate takes the whole link.
        return MultiFlowPrediction(
            n_cubic=n_cubic,
            n_bbr=0,
            bbr_aggregate_sync=0.0,
            bbr_aggregate_desync=0.0,
            cubic_aggregate_sync=c,
            cubic_aggregate_desync=c,
            in_validity_range=in_range,
        )

    sync = aggregate_bbr_bandwidth(link, n_cubic, CUBIC_BACKOFF)
    if n_cubic > 0:
        desync = aggregate_bbr_bandwidth(
            link, n_cubic, desync_backoff(n_cubic)
        )
    else:
        desync = sync
    return MultiFlowPrediction(
        n_cubic=n_cubic,
        n_bbr=n_bbr,
        bbr_aggregate_sync=sync,
        bbr_aggregate_desync=desync,
        cubic_aggregate_sync=c - sync,
        cubic_aggregate_desync=c - desync,
        in_validity_range=in_range,
    )
