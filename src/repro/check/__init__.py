"""Opt-in runtime invariant sanitizer (``repro.check``).

Threads conservation audits, event-loop legality, per-CCA law
invariants, and fluid rate-conservation checks through both simulation
substrates.  Disabled runs pay a single ``if check is not None``
attribute test per instrumented site — the same guard discipline as
:mod:`repro.obs`.  See ``docs/CHECKS.md`` for the invariant catalogue.
"""

from repro.util.ambient import ProcessDefault
from repro.util.lazy import lazy_exports

_EXPORTS = {
    "repro.check.core": ("MAX_PENDING_EVENTS", "Checker"),
    "repro.check.errors": ("InvariantViolation",),
}


def _checker():
    from repro.check.core import Checker

    return Checker()


#: An explicit :func:`set_default` always wins (including an explicit
#: ``None``, which disables checking even under ``REPRO_CHECK=1``);
#: otherwise the environment decides, with one shared lazily-created
#: checker per process.  The slot lives here, not in :mod:`.core`, so
#: that asking whether a checker is on loads no checker.
_DEFAULT = ProcessDefault(factory=_checker, env="REPRO_CHECK")

enabled_from_env = _DEFAULT.enabled_from_env
get_default = _DEFAULT.get
set_default = _DEFAULT.set
clear_default = _DEFAULT.clear
resolve = _DEFAULT.resolve
use = _DEFAULT.use

__all__ = [name for names in _EXPORTS.values() for name in names]
__all__ += [
    "clear_default",
    "enabled_from_env",
    "get_default",
    "resolve",
    "set_default",
    "use",
]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
