"""Pluggable update dynamics for the CCA adoption game.

Each dynamics rule maps ``(shares, payoffs) -> next shares`` one tick at
a time, vectorized over all cells at once.  Three standard rules from
evolutionary game theory are provided:

* ``replicator`` — discrete-time replicator dynamics: a strategy's
  share grows in proportion to its payoff advantage over the cell mean,
  damped by a step size.  Interior rest points are exactly the mixed
  Nash equilibria of the payoff function, which is what lets the
  trajectory's fixed point be compared against
  :func:`repro.core.nash.predict_nash`.
* ``best-response`` — a fraction ``1 - inertia`` of each cell jumps to
  the current best response; the rest stay put.  Converges fast, can
  overshoot and cycle around interior equilibria when inertia is low.
* ``logit`` — noisy choice: per tick a fraction ``epsilon`` of flows
  reconsiders.  Without an RNG the reconsidering mass splits by the
  logit (softmax) choice rule at the configured temperature; with an
  RNG the choice is a sampled Gumbel-perturbed best response (an
  aggregate taste shock per cell per tick), which makes trajectories
  genuinely stochastic while staying deterministic per seed.

A ``mutation`` rate mixes a uniform exploration term into every rule,
keeping all strategies alive (the standard replicator-mutator /
ergodicity device).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.fluidsim.mathops import np

__all__ = ["DYNAMICS", "DynamicsConfig", "step_shares"]

#: Registered dynamics rule names (the CLI/campaign vocabulary).
DYNAMICS = ("replicator", "best-response", "logit")


@dataclass(frozen=True)
class DynamicsConfig:
    """Parameters of one dynamics rule.

    Attributes:
        name: One of :data:`DYNAMICS`.
        step: Replicator step size (damping) in (0, 1].
        inertia: Best-response stay-put fraction in [0, 1).
        epsilon: Logit reconsideration probability in (0, 1].
        temperature: Logit choice temperature as a *fraction of the
            cell's fair share* ``C/N`` — payoff differences much larger
            than ``temperature * C/N`` make the choice nearly
            deterministic.
        mutation: Uniform exploration rate in [0, 1).
    """

    name: str = "replicator"
    step: float = 0.5
    inertia: float = 0.5
    epsilon: float = 0.2
    temperature: float = 0.05
    mutation: float = 0.0

    def __post_init__(self) -> None:
        if self.name not in DYNAMICS:
            raise ValueError(
                f"dynamics must be one of {DYNAMICS}, got {self.name!r}"
            )
        if not 0.0 < self.step <= 1.0:
            raise ValueError(f"step must be in (0, 1], got {self.step}")
        if not 0.0 <= self.inertia < 1.0:
            raise ValueError(
                f"inertia must be in [0, 1), got {self.inertia}"
            )
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(
                f"epsilon must be in (0, 1], got {self.epsilon}"
            )
        if self.temperature <= 0.0:
            raise ValueError(
                f"temperature must be positive, got {self.temperature}"
            )
        if not 0.0 <= self.mutation < 1.0:
            raise ValueError(
                f"mutation must be in [0, 1), got {self.mutation}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "step": self.step,
            "inertia": self.inertia,
            "epsilon": self.epsilon,
            "temperature": self.temperature,
            "mutation": self.mutation,
        }


def _best_response_onehot(payoffs: np.ndarray) -> np.ndarray:
    """One-hot argmax rows (ties break toward the lowest index)."""
    best = np.argmax(payoffs, axis=1)
    onehot = np.zeros_like(payoffs)
    onehot[np.arange(payoffs.shape[0]), best] = 1.0
    return onehot


def _replicator(
    shares: np.ndarray, payoffs: np.ndarray, step: float
) -> np.ndarray:
    mean = (shares * payoffs).sum(axis=1, keepdims=True)
    # A cell with zero mean payoff (e.g. all strategies starved) has no
    # gradient signal; leave its shares unchanged.
    safe = np.where(mean > 0.0, mean, 1.0)
    growth = 1.0 + step * (payoffs - mean) / safe
    nxt = shares * np.clip(growth, 0.0, None)
    nxt = np.where(mean > 0.0, nxt, shares)
    return nxt


def _logit_choice(
    payoffs: np.ndarray,
    scales: np.ndarray,
    temperature: float,
    rng: Optional[np.random.Generator],
) -> np.ndarray:
    """Choice distribution of a reconsidering flow, per cell.

    ``scales`` holds each cell's fair share ``C/N``; the effective
    temperature is ``temperature * scale`` so the same config behaves
    comparably across links of very different capacity.
    """
    temp = temperature * scales[:, None]
    utilities = payoffs / temp
    if rng is not None:
        # One Gumbel taste shock per (cell, strategy) per tick: the
        # reconsidering mass follows the perturbed best response.
        shock = rng.gumbel(size=payoffs.shape)
        return _best_response_onehot(utilities + shock)
    utilities = utilities - utilities.max(axis=1, keepdims=True)
    weights = np.exp(utilities)
    return weights / weights.sum(axis=1, keepdims=True)


def step_shares(
    config: DynamicsConfig,
    shares: np.ndarray,
    payoffs: np.ndarray,
    scales: np.ndarray,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Advance every cell's share row one tick under ``config``.

    Args:
        config: The dynamics rule and its parameters.
        shares: ``(n_cells, n_strategies)`` current shares.
        payoffs: ``(n_cells, n_strategies)`` per-flow payoffs
            (bytes/second from the oracle).
        scales: ``(n_cells,)`` per-cell payoff scales (fair share
            ``C/N``), used to normalize the logit temperature.
        rng: Optional generator for the sampled logit rule.  The RNG is
            consumed only here, once per tick, in the caller's process —
            never inside the payoff oracle — so trajectories are
            bit-identical across ``--jobs`` settings and cache states.

    Returns a new simplex-valid share array; the inputs are not
    modified.
    """
    shares = np.asarray(shares, dtype=np.float64)
    payoffs = np.asarray(payoffs, dtype=np.float64)
    if config.name == "replicator":
        nxt = _replicator(shares, payoffs, config.step)
    elif config.name == "best-response":
        target = _best_response_onehot(payoffs)
        nxt = config.inertia * shares + (1.0 - config.inertia) * target
    else:  # logit
        choice = _logit_choice(
            payoffs, np.asarray(scales, dtype=np.float64),
            config.temperature, rng,
        )
        nxt = (1.0 - config.epsilon) * shares + config.epsilon * choice
    if config.mutation > 0.0:
        uniform = 1.0 / shares.shape[1]
        nxt = (1.0 - config.mutation) * nxt + config.mutation * uniform
    nxt = np.clip(nxt, 0.0, None)
    return nxt / nxt.sum(axis=1, keepdims=True)
