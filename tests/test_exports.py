"""Public API surface: the names the README and docs promise."""

import importlib

import pytest


def test_top_level_exports():
    import repro

    for name in (
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
