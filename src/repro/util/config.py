"""``LinkConfig``: the public short name of the bottleneck spec.

The bottleneck is one class, :class:`repro.scenario.spec.BottleneckSpec`
(capacity, base RTT, buffer depth, MSS, AQM and capacity trace), and
every module inside the package names it so.  ``LinkConfig`` is the
same class under the name scripts, examples and tests import from
:mod:`repro` and :mod:`repro.util`.
"""

from __future__ import annotations

from repro.scenario.spec import BottleneckSpec

LinkConfig = BottleneckSpec

__all__ = ["LinkConfig"]
