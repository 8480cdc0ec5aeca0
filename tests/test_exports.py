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
    from repro.experiments import FIGURE_IDS, FIGURES

    assert tuple(FIGURES) == FIGURE_IDS
    for key, fn in FIGURES.items():
        assert callable(fn), key


def test_console_script_entry_point():
    from repro.cli import main

    assert callable(main)


#: Every package (``repro.scenario`` re-exports eagerly, the rest lazily).
PACKAGES = sorted(
    ".".join(path.relative_to(SRC).parent.parts)
    for path in SRC.rglob("__init__.py")
)


@pytest.mark.parametrize("package", PACKAGES)
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


# -- what an entry point imports ---------------------------------------------

#: The benchmark's setup line (``benchmarks/e2e/workloads.py``).
SETUP = """
from repro.campaign import parse_spec, run_campaign
from repro.exec import Engine, ResultCache, ScenarioPoint
from repro.scenario import BottleneckSpec
"""


def _batch(backend, points, flows):
    """One batch of ``points`` points through a fresh engine."""
    return SETUP + f"""
Engine().run_points([
    ScenarioPoint(
        link=BottleneckSpec.from_mbps_ms(10.0, 20.0, 1.0),
        mix=(("cubic", {flows - 1}), ("bbr", 1)),
        duration=1.0,
        backend={backend!r},
        seed=seed,
    )
    for seed in range({points})
])
"""


#: What a ``jobs=1`` run never uses: the process pool, ``logging`` and
#: ``gzip``, the model, the trace exporter, the campaign's inspection
#: commands, the checker and the figures.
POOL = ("multiprocessing", "concurrent.futures")
UNUSED_BY_A_RUN = POOL + (
    "logging",
    "gzip",
    "repro.core",
    "repro.obs.report",
    "repro.obs.export",
    "repro.obs.manifest",
    "repro.obs.bus",
    "repro.campaign.report",
    "repro.campaign.status",
    "repro.campaign.studies",
    "repro.check.core",
    "repro.experiments.figures",
)

#: What the runner's mean of many values does without: ``statistics``
#: and the exact types it loads.
EXACT_MEAN = ("statistics", "decimal", "fractions")

#: id -> (code, environment it adds, modules it must load, modules it
#: must not load -- a package stands for its submodules too).
ENTRY_POINTS = {
    "setup": (
        SETUP,
        {},
        ("repro.campaign.run", "repro.exec.engine"),
        UNUSED_BY_A_RUN
        + (
            "numpy",
            "repro.experiments",
            "repro.fluidsim",
            "repro.population",
            "repro.sim",
        ),
    ),
    "predict_nash": (
        "import repro; repro.predict_nash",
        {},
        ("repro.core.nash",),
        ("numpy", "repro.core.game", "repro.exec", "repro.cc"),
    ),
    # 3 CUBIC + 1 BBR: a class of three flows takes the runner's
    # many-value mean.
    "packet_point": (
        _batch("packet", 1, 4),
        {},
        ("repro.sim.network",),
        UNUSED_BY_A_RUN + ("numpy", "repro.fluidsim") + EXACT_MEAN,
    ),
    "fluid_point": (
        _batch("fluid", 1, 4),
        {},
        ("numpy", "repro.fluidsim.core", "repro.fluidsim.flows"),
        UNUSED_BY_A_RUN + ("repro.fluidsim.vec", "repro.sim") + EXACT_MEAN,
    ),
    # 4 points x 20 flows: 80 rows, one vectorized batch.
    "vec_batch": (
        _batch("fluid", 4, 20),
        {},
        ("numpy", "repro.fluidsim.vec"),
        UNUSED_BY_A_RUN
        + ("repro.fluidsim.core", "repro.fluidsim.flows", "repro.sim"),
    ),
    "cli": (
        "import repro.cli",
        {},
        ("repro.cli",),
        POOL
        + (
            "numpy",
            "repro.core.game",
            "repro.experiments.figures",
            "repro.experiments.runner",
        ),
    ),
    "checked_packet_point": (
        _batch("packet", 1, 2),
        {"REPRO_CHECK": "1"},
        ("repro.check.core", "repro.sim.network"),
        ("numpy", "repro.fluidsim"),
    ),
}

#: ``repro`` modules the setup line may load (37 before every package
#: re-exported lazily).
SETUP_MAX_MODULES = 22


def _fresh(code, environ, scrub=("REPRO_",)):
    """What a fresh interpreter prints running ``code``, with no
    variable named by a ``scrub`` prefix but those in ``environ``."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(scrub)
    }
    env.update(environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout


def _modules_after(code, environ):
    """Every module a fresh interpreter holds after running ``code``,
    with no ``REPRO_*`` variable but those in ``environ``."""
    return set(
        _fresh(code + "\nprint(*sorted(sys.modules))", environ).split()
    )


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_an_entry_point_loads_only_what_it_runs(entry):
    code, environ, needed, unused = ENTRY_POINTS[entry]
    loaded = _modules_after("import sys\n" + code, environ)
    assert set(needed) <= loaded
    extra = sorted(
        name
        for name in loaded
        if any(name == u or name.startswith(u + ".") for u in unused)
    )
    assert not extra, f"{entry} loads {extra}"


def test_the_setup_line_loads_few_repro_modules():
    loaded = _modules_after("import sys\n" + SETUP, {})
    repro = sorted(name for name in loaded if name.startswith("repro"))
    assert len(repro) <= SETUP_MAX_MODULES, repro


# -- numpy loads without OpenBLAS's thread pool ------------------------------

#: Loads numpy the project's way, runs one BLAS call, and prints the
#: process's threads, whether ``os.environ`` came back as it was, and
#: the BLAS numpy was built against.
THREADS = """
import os
before = dict(os.environ)
from repro.fluidsim.mathops import np
np.ones((64, 64)) @ np.ones((64, 64))
blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
print(len(os.listdir("/proc/self/task")), dict(os.environ) == before)
print(blas.get("blas", {}).get("name", "unknown"))
"""


def _threads(environ):
    """(threads, ``os.environ`` unchanged) after :data:`THREADS`, with
    no BLAS variable but those in ``environ`` (the caller's choice
    would hide the project's default)."""
    from repro.fluidsim.mathops import BLAS_THREAD_VARS

    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    scrub = ("REPRO_",) + BLAS_THREAD_VARS
    lines = _fresh(THREADS, environ, scrub).splitlines()
    threads, unchanged = lines[0].split()
    if "openblas" not in lines[1]:
        pytest.skip(f"numpy is built against {lines[1]}, not OpenBLAS")
    return int(threads), unchanged == "True"


def test_numpy_loads_with_one_blas_thread():
    assert _threads({}) == (1, True)


def test_a_chosen_blas_thread_count_is_kept():
    threads, unchanged = _threads({"OPENBLAS_NUM_THREADS": "2"})
    assert unchanged
    if len(os.sched_getaffinity(0)) >= 2:
        assert threads == 2
