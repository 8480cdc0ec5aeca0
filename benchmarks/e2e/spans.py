"""Benchmark-side span tracing at the program's layer boundaries.

The program is not edited: :func:`install` wraps the public calls that
separate its layers (``run_campaign``, ``Engine.run_points``,
``run_fluid``, ``os.fsync``, ...) so each call records a span — layer,
start, end, parent — into an in-memory list, aggregated once when the
traced body has finished.  A layer's *self time* is its spans' duration
minus the part their child spans cover, so the layers sum to the body's
wall time; whatever no wrapped call covers is reported as
``unattributed``.

Bodies are single-threaded (``jobs=1``), so one span stack suffices.
A target that no longer exists is skipped and listed in
``Tracer.missing`` — its layer then simply reads 0 calls — so the
benchmark survives the refactors it is meant to judge.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

#: (layer, module, dotted attribute).  Order is irrelevant; a layer may
#: have several entry points.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("campaign.run", "repro.campaign.run", "run_campaign"),
    ("campaign.expand", "repro.campaign.expand", "expand_units"),
    ("campaign.journal", "repro.campaign.journal", "Journal.append"),
    ("campaign.journal", "repro.campaign.journal", "Journal.iter_records"),
    ("campaign.sink", "repro.campaign.sink", "CampaignSink.add"),
    ("campaign.sink", "repro.campaign.sink", "CampaignSink.flush"),
    ("campaign.sink", "repro.campaign.sink", "CampaignSink.close"),
    ("obs.progress", "repro.obs.progress", "ProgressTracker.write_sidecar"),
    ("exec.engine", "repro.exec.engine", "Engine.run_points"),
    ("exec.engine", "repro.exec.engine", "Engine.iter_points"),
    (
        "exec.fingerprint",
        "repro.exec.fingerprint",
        "ScenarioPoint.fingerprint",
    ),
    ("exec.cache", "repro.exec.cache", "ResultCache.get"),
    ("exec.cache", "repro.exec.cache", "ResultCache.put"),
    ("experiments.runner", "repro.experiments.runner", "run_mix"),
    ("experiments.runner", "repro.experiments.runner", "run_mix_batch"),
    ("fluidsim.scalar", "repro.fluidsim.core", "run_fluid"),
    ("fluidsim.vec", "repro.fluidsim.vec", "run_fluid_vec_batch"),
    ("sim", "repro.sim.network", "run_dumbbell"),
    ("io.fsync", "os", "fsync"),
    ("io.fsync", "os", "replace"),
)

#: Module-name prefixes whose by-name imports of a target are rebound.
_PATCHED_NAMESPACES = ("repro", "workloads")

#: Every layer reported, whether or not a workload enters it.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))


class Tracer:
    """In-memory span recorder behind the wrapped calls."""

    def __init__(self) -> None:
        #: ``[layer, start, end, parent index or -1]`` per span.
        self.spans: List[List[Any]] = []
        #: Calls per wrapped target, keyed ``"module:attr"``.
        self.calls: Dict[str, int] = {}
        #: ``{"module:attr": reason}`` for targets that were not found.
        self.missing: Dict[str, str] = {}
        self._stack: List[int] = []

    def _open(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def wrap(self, layer: str, target: str, fn: Callable) -> Callable:
        """A wrapper recording one span per call of ``fn`` (for a
        generator function: one span per resumption, so time the
        consumer spends between items is not charged to it)."""
        self.calls[target] = 0
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args: Any, **kwargs: Any):
                self.calls[target] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        index = self._open(layer)
                        try:
                            item = next(inner)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            self._close(index)
                        yield item
                finally:
                    inner.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            self.calls[target] += 1
            index = self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def layer_table(self) -> Dict[str, Any]:
        """Per-layer ``self_s`` and ``calls``, plus ``covered_s``: the
        time inside any span."""
        child = [0.0] * len(self.spans)
        self_s = {layer: 0.0 for layer in LAYERS}
        covered = 0.0
        # Children are recorded after their parents, so one reverse
        # pass has every span's child total ready when it is reached.
        for index in range(len(self.spans) - 1, -1, -1):
            layer, start, end, parent = self.spans[index]
            duration = end - start
            self_s[layer] += duration - child[index]
            if parent >= 0:
                child[parent] += duration
            else:
                covered += duration
        calls = {layer: 0 for layer in LAYERS}
        for layer, module_name, dotted in TARGETS:
            calls[layer] += self.calls.get(f"{module_name}:{dotted}", 0)
        return {"self_s": self_s, "calls": calls, "covered_s": covered}


def _resolve(module_name: str, dotted: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute name, current value)`` of a target."""
    owner = importlib.import_module(module_name)
    *path, leaf = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


def install() -> Tracer:
    """Wrap every target; call once, after the program is imported.

    Class attributes are patched on the class.  Module functions are
    patched in their defining module *and* in every loaded module of
    the program or the benchmark that imported them by name, because
    those hold their own reference (``from repro.fluidsim.core import
    run_fluid``).
    """
    tracer = Tracer()
    for layer, module_name, dotted in TARGETS:
        target = f"{module_name}:{dotted}"
        try:
            owner, leaf, original = _resolve(module_name, dotted)
        except (ImportError, AttributeError) as exc:
            tracer.missing[target] = repr(exc)
            continue
        wrapped = tracer.wrap(layer, target, original)
        setattr(owner, leaf, wrapped)
        if inspect.isclass(owner) or module_name == "os":
            continue
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith(_PATCHED_NAMESPACES):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
    return tracer
