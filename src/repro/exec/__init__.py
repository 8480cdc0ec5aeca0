"""repro.exec — the shared scenario-execution layer.

Every sweep in the experiment harness reduces to resolving independent
*scenario points* (one ``run_mix`` invocation each).  This package is
the one place that happens:

* :mod:`repro.exec.fingerprint` — canonical, stable content hashes of
  scenario descriptors (:class:`ScenarioPoint`);
* :mod:`repro.exec.cache` — a content-addressed on-disk result store
  with atomic writes and schema/version self-invalidation
  (:class:`ResultCache`);
* :mod:`repro.exec.engine` — :class:`Engine`, which answers points from
  the cache and fans misses out over worker processes (``jobs > 1``),
  counting what it did in :attr:`Engine.stats`.

By default there is no cache and execution is sequential.  The CLI
wires ``--jobs/--cache-dir/--no-cache`` into an engine and
installs it as the process default (:func:`use`), which the figure
generators and NE throughput functions pick up via :func:`resolve`.
"""

from repro.exec.cache import ResultCache, default_cache_root
from repro.exec.engine import (
    Engine,
    get_default,
    resolve,
    set_default,
    use,
)
from repro.exec.fingerprint import (
    CACHE_SCHEMA,
    ScenarioPoint,
    fingerprint_payload,
    link_params,
)

__all__ = [
    "CACHE_SCHEMA",
    "Engine",
    "ResultCache",
    "ScenarioPoint",
    "default_cache_root",
    "fingerprint_payload",
    "get_default",
    "link_params",
    "resolve",
    "set_default",
    "use",
]
