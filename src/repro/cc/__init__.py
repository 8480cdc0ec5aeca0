"""Congestion control algorithms, re-implemented from their publications.

``make_controller("bbr")`` etc. resolve every canonical algorithm
through the :mod:`repro.cc.laws` table, which imports the adapter on
first use.  The names below are re-exported lazily, so loading the law
modules (as both fluid substrates do) does not load the per-ACK
adapters.

Algorithms:

* ``reno``   — NewReno AIMD baseline.
* ``cubic``  — RFC 8312 CUBIC with fast convergence and the TCP-friendly
  region (the incumbent in the paper's game).
* ``bbr``    — BBRv1's four-state machine (the challenger).
* ``bbr2``   — simplified BBRv2: loss-bounded in-flight cap, gentler
  probing (§4.6 of the paper).
* ``copa``   — Copa delay-target control (§4.2).
* ``vivace`` — PCC Vivace online-learning control (§4.2).
* ``vegas``  — classic delay-based Vegas (for the Reno/Vegas game
  literature the paper cites in §6).
"""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    "repro.cc.base": (
        "CongestionControl",
        "available_algorithms",
        "make_controller",
        "register",
    ),
    "repro.cc.bbr": ("BBRv1",),
    "repro.cc.bbr2": ("BBRv2",),
    "repro.cc.copa": ("Copa",),
    "repro.cc.cubic": ("Cubic",),
    "repro.cc.reno": ("Reno",),
    "repro.cc.vegas": ("Vegas",),
    "repro.cc.vivace": ("Vivace",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
