"""Shared transcendental kernels for the two fluid substrates.

The vectorized substrate (:mod:`repro.fluidsim.vec`) evaluates control
laws with numpy ufuncs, and numpy's ``power``/``exp2`` are *not*
bit-identical to CPython's ``**`` (their SIMD kernels round a few ulp
differently on a small fraction of inputs).  Sums, products, ratios,
mins and maxes are exact either way — only the power functions differ —
so both fluid adapters route every power through the helpers below.
numpy ufuncs are elementwise position-independent (a scalar call and an
array call produce the same bits), which is what makes the scalar and
vectorized fluid paths agree *bitwise*, tick for tick, rather than
merely within a tolerance.  It also lets the scalar CUBIC adapter take
its cubes a block of ticks at a time (:func:`cubic_cubes`): one array
call, the bits of one scalar call per tick.

The packet substrate keeps the pure-Python law functions: its numbers
are per-ACK and never compared bitwise against the fluid model.

This module is also the project's one numpy import: the fluid
substrates, the population model and the checker's array audits take
``np`` from here.  A missing numpy fails here with an actionable
message instead of a bare ``ModuleNotFoundError`` deep inside a sweep,
and numpy loads without OpenBLAS's thread pool (:func:`_load_numpy`).
"""

from __future__ import annotations

import os

from repro.cc.laws import cubic as cubic_laws
from repro.cc.laws import vivace as vivace_laws

#: The variables OpenBLAS reads for its thread count at load; one set
#: by the user is theirs to keep.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_NUM_THREADS",
)


def _load_numpy():
    """numpy, its OpenBLAS loaded with one thread unless the user chose.

    Nothing in the project calls a BLAS routine, yet OpenBLAS starts a
    pool of ``ncpu − 1`` threads when numpy loads: tens of ms of every
    fresh fluid process, and idle threads in every engine pool worker.
    OpenBLAS reads its thread count once, at load, so the variable is
    set only around the import and ``os.environ`` is left as it was.
    """
    if any(name in os.environ for name in BLAS_THREAD_VARS):
        import numpy

        return numpy
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
    return numpy


try:
    np = _load_numpy()
except ImportError as exc:  # pragma: no cover - environment-dependent
    raise ImportError(
        "the fluid simulator requires numpy>=1.24, which is a declared "
        "dependency of this package; install it with `pip install -e .` "
        "(or `pip install numpy`)"
    ) from exc

__all__ = [
    "np",
    "exp2",
    "cubic_k",
    "cubic_window",
    "cubic_cubes",
    "vivace_utility",
    "vivace_score",
]


def exp2(x):
    """``2**x`` via numpy (slow-start doubling factors)."""
    return np.exp2(x)


def cubic_k(w_max):
    """CUBIC's ``K = cbrt(W_max (1 − β) / C)``, numpy-rounded.

    ``np.power`` explicitly — a Python ``**`` would dispatch to
    CPython's pow for float inputs (the scalar adapter's case) and to
    numpy's for arrays, and the two round differently often enough to
    break scalar↔vec bit parity.
    """
    return np.power(
        w_max * (1.0 - cubic_laws.BETA_CUBIC) / cubic_laws.C_CUBIC,
        1.0 / 3.0,
    )


def cubic_window(t, k, w_max):
    """CUBIC Equation (1) target window in segments, numpy-rounded."""
    return cubic_laws.C_CUBIC * np.power(t - k, 3.0) + w_max


#: Ticks in the first of an epoch's CUBIC cube blocks, and the most in
#: one; each refill within the epoch doubles the block.
CUBE_BLOCK_MIN = 8
CUBE_BLOCK_MAX = 256


def cubic_cubes(now, dt, epoch_start, k, n):
    """The clock of ``n`` ticks, ``now`` first, and CUBIC's cube
    ``((t − epoch_start) − K)³`` at each, as two lists.

    One ``np.power`` over the block gives each element the bits of a
    per-tick scalar call (position independence, above), and
    ``np.add.accumulate`` adds ``dt`` strictly in order, so ``times``
    matches a loop's repeated ``now += dt`` bit for bit.
    """
    times = np.add.accumulate([now] + [dt] * (n - 1))
    return times.tolist(), np.power((times - epoch_start) - k, 3.0).tolist()


def vivace_utility(rate, rtt_gradient, loss_rate, latency_coeff, loss_coeff):
    """Vivace's utility (rate in bytes/s, scored in Mbps), numpy pow."""
    x_mbps = rate * 8.0 / 1e6
    with np.errstate(all="ignore"):
        value = (
            np.power(x_mbps, vivace_laws.THROUGHPUT_EXPONENT)
            - latency_coeff * x_mbps * np.maximum(0.0, rtt_gradient)
            - loss_coeff * x_mbps * loss_rate
        )
    return np.where(x_mbps <= 0, 0.0, value)


def vivace_score(
    elapsed, delivered_bytes, lost_bytes, rtt_gradient, latency_coeff,
    loss_coeff,
):
    """Utility of one finished monitor interval (numpy-rounded pow)."""
    delivered_bytes = np.asarray(delivered_bytes, dtype=np.float64)
    lost_bytes = np.asarray(lost_bytes, dtype=np.float64)
    elapsed = np.maximum(np.asarray(elapsed, dtype=np.float64), 1e-6)
    achieved = delivered_bytes / elapsed
    total = delivered_bytes + lost_bytes
    with np.errstate(all="ignore"):
        loss = np.where(total > 0, lost_bytes / total, 0.0)
    return vivace_utility(
        achieved, rtt_gradient, loss, latency_coeff, loss_coeff
    )
