"""Public API surface: the names the README and docs promise, and what
a request imports to answer them."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def test_top_level_exports():
    import repro

    for name in (
        "BottleneckSpec",
        "LinkConfig",
        "predict_two_flow",
        "predict_multi_flow",
        "predict_nash",
        "ware_prediction",
        "ThroughputTable",
        "__version__",
    ):
        assert hasattr(repro, name), name


@pytest.mark.parametrize(
    "module,names",
    [
        (
            "repro.core",
            [
                "bisect_nash",
                "GroupGame",
                "nash_region",
                "ne_existence_conditions",
            ],
        ),
        (
            "repro.cc",
            ["make_controller", "BBRv1", "BBRv2", "Cubic", "Vegas"],
        ),
        (
            "repro.sim",
            [
                "run_dumbbell",
                "DumbbellNetwork",
                "FlowSpec",
                "RED",
                "CoDel",
                "CwndTracer",
                "EventLoop",
                "EventBudgetExceeded",
            ],
        ),
        (
            "repro.fluidsim",
            ["run_fluid", "FluidSpec", "FluidSimulation", "LOSS_MODES"],
        ),
        (
            "repro.experiments",
            ["FIGURES", "run_mix", "FigureResult"],
        ),
        (
            "repro.exec",
            [
                "Engine",
                "ResultCache",
                "ScenarioPoint",
                "default_cache_root",
                "fingerprint_payload",
                "resolve",
                "use",
            ],
        ),
        (
            "repro.analysis",
            ["jains_index", "synchronization_index", "classify_regime"],
        ),
        (
            "repro.workloads",
            ["poisson_short_flows", "on_off_flows", "long_lived"],
        ),
    ],
)
def test_subpackage_exports(module, names):
    mod = importlib.import_module(module)
    for name in names:
        assert hasattr(mod, name), f"{module}.{name}"
        assert name in mod.__all__, f"{name} missing from {module}.__all__"


def test_the_packet_is_its_own_ack():
    """``Ack`` is gone: the receiver stamps ``recv_time`` on the packet,
    which travels back to the sender as its ACK."""
    import repro.sim
    import repro.sim.packet

    assert not hasattr(repro.sim, "Ack")
    assert not hasattr(repro.sim.packet, "Ack")
    assert "recv_time" in repro.sim.Packet.__dataclass_fields__


def test_every_figure_id_is_callable():
    from repro.experiments import FIGURES

    for key, fn in FIGURES.items():
        assert callable(fn), key


def test_console_script_entry_point():
    from repro.cli import main

    assert callable(main)


@pytest.mark.parametrize(
    "package", ["repro.cc", "repro.experiments", "repro.fluidsim"]
)
def test_every_lazy_export_resolves(package):
    """The packages resolve their re-exports on first use: every name
    in ``__all__`` is reachable and listed, and a typo still fails."""
    mod = importlib.import_module(package)
    for name in mod.__all__:
        assert getattr(mod, name) is not None, f"{package}.{name}"
        assert name in dir(mod)
    with pytest.raises(AttributeError, match="no attribute"):
        getattr(mod, "no_such_name")


def test_result_types_have_one_home():
    from repro.scenario.result import FlowResult, SimulationResult
    from repro.sim import FlowResult as SimFlowResult
    from repro.sim import SimulationResult as SimResult

    assert SimResult is SimulationResult
    assert SimFlowResult is FlowResult


# -- what a request imports ---------------------------------------------------

#: Runs one batch through a fresh engine in a fresh interpreter (so the
#: test process's own imports do not count) and prints which of the
#: watched modules it loaded.
REQUEST = """
import sys
from repro.exec import Engine, ScenarioPoint
from repro.scenario import BottleneckSpec

backend, points, flows = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
Engine().run_points([
    ScenarioPoint(
        link=BottleneckSpec.from_mbps_ms(10.0, 20.0, 1.0),
        mix=(("cubic", flows - 1), ("bbr", 1)),
        duration=1.0,
        backend=backend,
        seed=seed,
    )
    for seed in range(points)
])
watched = (
    "numpy", "repro.sim", "repro.experiments.figures",
    "repro.fluidsim", "repro.fluidsim.flows", "repro.fluidsim.vec",
)
print(" ".join(name for name in watched if name in sys.modules))
"""


def _loaded(backend, points, flows):
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", REQUEST, backend, str(points), str(flows)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return set(done.stdout.split())


def test_a_fluid_point_loads_the_scalar_substrate_only():
    assert _loaded("fluid", 1, 2) == {
        "numpy",
        "repro.fluidsim",
        "repro.fluidsim.flows",
    }


def test_a_fluid_batch_loads_the_vectorized_substrate_only():
    # 4 points x 20 flows: 80 rows, one vectorized batch.
    assert _loaded("fluid", 4, 20) == {
        "numpy",
        "repro.fluidsim",
        "repro.fluidsim.vec",
    }


def test_a_packet_point_loads_neither_numpy_nor_the_fluid_model():
    assert _loaded("packet", 1, 2) == {"repro.sim"}
