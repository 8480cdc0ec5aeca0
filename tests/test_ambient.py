"""The one process-default registry (``repro.util.ambient``) behind the
telemetry bus, the span tracer, the invariant checker and the engine."""

import pytest

from repro.check import core as check_core
from repro.exec import engine as engine_mod
from repro.obs import bus, trace
from repro.util.ambient import _UNSET

#: module -> the environment switch of its slot (None: it has none).
SLOTS = {
    "check": (check_core, "REPRO_CHECK"),
    "trace": (trace, "REPRO_TRACE"),
    "bus": (bus, None),
    "exec": (engine_mod, None),
}


@pytest.fixture(params=sorted(SLOTS))
def slot(request, monkeypatch):
    """``(module, env)`` with the slot emptied for the test."""
    module, env = SLOTS[request.param]
    default = module._DEFAULT
    # monkeypatch puts the slot's state back after the test.
    monkeypatch.setattr(default, "_explicit", default._explicit)
    monkeypatch.setattr(default, "_lazy", default._lazy)
    if env is not None:
        monkeypatch.delenv(env, raising=False)
    default.clear()
    return module, env


def test_process_default_contract(slot, monkeypatch):
    module, env = slot
    default = module._DEFAULT
    assert module.get_default() is None

    # use(x) restores the previous state -- nested, on exceptions, and
    # back to "unset" (not to an explicit None).
    outer, inner = object(), object()
    with module.use(outer):
        with pytest.raises(RuntimeError):
            with module.use(inner) as installed:
                assert installed is inner
                assert module.get_default() is inner
                assert module.resolve(None) is inner
                raise RuntimeError("boom")
        assert module.get_default() is outer
        explicit = object()
        assert module.resolve(explicit) is explicit
    assert module.get_default() is None
    assert default._explicit is _UNSET

    if env is None:
        assert not default.enabled_from_env({"REPRO_CHECK": "1"})
        return
    # The environment decides while nothing is installed: one shared
    # lazily built instance.
    monkeypatch.setenv(env, "1")
    shared = module.get_default()
    assert shared is not None and module.get_default() is shared
    # An explicit None beats the variable ...
    module.set_default(None)
    assert module.get_default() is None
    assert module.resolve(None) is None
    # ... and clear_default() returns to "env decides", dropping the
    # instance built before.
    module.clear_default()
    rebuilt = module.get_default()
    assert rebuilt is not None and rebuilt is not shared
    monkeypatch.setenv(env, "0")
    assert module.get_default() is None


@pytest.mark.parametrize("slot", ["exec"], indirect=True)
def test_exec_resolve_builds_one_shared_fallback_engine(slot):
    fallback = engine_mod.resolve(None)
    assert isinstance(fallback, engine_mod.Engine)
    assert fallback.jobs == 1 and fallback.cache is None
    assert engine_mod.resolve(None) is fallback
    assert engine_mod.get_default() is None  # A fallback, not a default.
    with engine_mod.use(engine_mod.Engine()) as installed:
        assert engine_mod.resolve(None) is installed
    assert engine_mod.resolve(None) is fallback
