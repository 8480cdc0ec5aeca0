"""Process-wide defaults for ambient run state (``repro.util.ambient``).

The telemetry bus (:mod:`repro.obs.bus`), the span tracer
(:mod:`repro.obs.trace`), the invariant checker (:mod:`repro.check`) and
the execution engine (:mod:`repro.exec`) are all *ambient*: call chains
that do not thread one explicitly pick up whatever is installed for the
process.  :class:`ProcessDefault` is the one implementation of that
registry; each of the four modules holds one instance and binds its
methods to the public names it has always exported (``get_default``,
``set_default``, ``clear_default``, ``resolve``, ``use``,
``enabled_from_env``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping, Optional

__all__ = ["ProcessDefault"]

_UNSET = object()


class ProcessDefault:
    """One process-wide default slot.

    Args:
        factory: Builds the shared instance the slot creates lazily
            (at most one per process, dropped by :meth:`clear`).  With
            ``env`` it is what :meth:`get` returns while the variable
            is on; without ``env`` it is the last resort of
            :meth:`resolve` only.  None: the slot never creates.
        env: Name of the environment variable that switches the lazy
            instance on (``REPRO_CHECK``, ``REPRO_TRACE``).

    An explicit :meth:`set` always wins, including an explicit None,
    which disables the default even while the variable is on.
    """

    def __init__(
        self,
        factory: Optional[Callable[[], Any]] = None,
        env: Optional[str] = None,
    ) -> None:
        self._factory = factory
        self._env = env
        self._explicit: Any = _UNSET
        self._lazy: Any = None

    def enabled_from_env(
        self, environ: Optional[Mapping[str, str]] = None
    ) -> bool:
        """Whether the slot's environment variable asks for a default."""
        if self._env is None:
            return False
        env = os.environ if environ is None else environ
        value = env.get(self._env, "")
        return value.strip().lower() not in ("", "0", "false", "no", "off")

    def _shared(self) -> Any:
        if self._lazy is None:
            self._lazy = self._factory()
        return self._lazy

    def get(self) -> Any:
        """The process-wide default, or None.

        The explicitly installed value when there is one; otherwise the
        shared lazily created instance while the environment variable
        is on; otherwise None.
        """
        if self._explicit is not _UNSET:
            return self._explicit
        if self._factory is not None and self.enabled_from_env():
            return self._shared()
        return None

    def set(self, value: Any) -> None:
        """Install ``value`` as the process-wide default (None disables)."""
        self._explicit = value

    def clear(self) -> None:
        """Forget any explicit default and drop the lazily built
        instance; the environment decides again."""
        self._explicit = _UNSET
        self._lazy = None

    def resolve(self, value: Any) -> Any:
        """An explicit ``value`` wins; otherwise the process default;
        otherwise, for a slot with a factory and no environment switch,
        the shared lazily created instance."""
        if value is not None:
            return value
        default = self.get()
        if default is None and self._factory is not None and not self._env:
            return self._shared()
        return default

    @contextmanager
    def use(self, value: Any) -> Iterator[Any]:
        """Temporarily install ``value``; restores the previous state
        (including "nothing installed") on exit."""
        previous = self._explicit
        self._explicit = value
        try:
            yield value
        finally:
            self._explicit = previous
