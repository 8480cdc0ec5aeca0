"""Source-shape gates: what ``src/`` must not grow back.

Each test reads the tree (AST or text, well under a second) and fails
on a *second* way of doing something the repo does one way.  They pin
decisions, not style: one route from a request to a substrate, one
game, an event-driven packet path without per-packet closures and a
bottleneck that schedules no event, a campaign layer with no
concurrency of its own (a stage's units advance in rounds through one
``Engine.run_points`` batch —
``repro.campaign.vocab._in_rounds``), one NE bisection, as a round
generator, one instrumented fluid loop, the scalar one, one recorder
of a run's time series, its telemetry bus, one vectorized
windowed filter, one variant per algorithm, its law's, and one
declaration of a bottleneck, ``BottleneckSpec``, an engine that runs
and counts points once, with wall time left to spans, each run fact
written to one record, a point that is one seed, repeated only by
the runner, one writer of ``results/``, and package ``__init__``s
that import none of their submodules.  The last
gate keeps CI from growing gates of its own: a check belongs here, or
in ``tests/smoke.py``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SOURCES = {path: path.read_text() for path in sorted(SRC.rglob("*.py"))}
TREES = {path: ast.parse(text) for path, text in SOURCES.items()}


def imported_modules(tree):
    """Every module an ``import`` / ``from ... import`` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def functions(tree):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def parameters(fn):
    return [arg.arg for arg in fn.args.args + fn.args.kwonlyargs]


def called_name(call):
    """``f`` for ``f(...)`` and ``obj.f(...)``; ``None`` otherwise."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def calls(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


def tree_of(relative):
    return TREES[SRC / "repro" / relative]


# -- one route from a request to a substrate ---------------------------------

SUBSTRATES = ("run_fluid", "run_dumbbell", "run_fluid_vec_batch")


def test_only_the_runner_calls_a_substrate():
    """The three definitions, ``run_fluid_vec``'s wrapper and the
    runner's three dispatch sites — nothing else calls a substrate."""
    sites = Counter()
    for path, tree in TREES.items():
        where = path.relative_to(SRC / "repro").as_posix()
        for fn in functions(tree):
            if fn.name in SUBSTRATES:
                sites[where, "def " + fn.name] += 1
        for call in calls(tree):
            if called_name(call) in SUBSTRATES:
                sites[where, called_name(call)] += 1
    assert sites == {
        ("sim/network.py", "def run_dumbbell"): 1,
        ("fluidsim/core.py", "def run_fluid"): 1,
        ("fluidsim/vec.py", "def run_fluid_vec_batch"): 1,
        ("fluidsim/vec.py", "run_fluid_vec_batch"): 1,
        ("experiments/runner.py", "run_fluid_vec_batch"): 1,
        ("experiments/runner.py", "run_dumbbell"): 1,
        ("experiments/runner.py", "run_fluid"): 1,
    }


def test_retired_request_paths_stay_retired():
    retired = (
        "cached_payload",
        "_mix_request",
        "_validate_mix_args",
        "rtts_dict",
    )
    for path, text in SOURCES.items():
        for name in retired:
            assert name not in text, f"{path}: {name}"


def test_the_runner_submits_rounds_not_single_points():
    """``run_points([point])`` is a round of one: a caller that has a
    round must submit it whole."""
    singles = [
        ast.unparse(call)
        for call in calls(tree_of("experiments/runner.py"))
        if called_name(call) == "run_points"
        and len(call.args) == 1
        and isinstance(call.args[0], ast.List)
        and len(call.args[0].elts) == 1
    ]
    assert not singles


def test_the_packet_path_schedules_no_closures():
    """Events carry a bound method and its arguments; a per-packet
    ``lambda`` allocates a closure per event."""
    for relative in ("sim/link.py", "sim/endpoints.py"):
        tree = tree_of(relative)
        lambdas = [n for n in ast.walk(tree) if isinstance(n, ast.Lambda)]
        assert not lambdas, f"{relative}: {len(lambdas)} lambda(s)"


def test_the_bottleneck_schedules_no_event():
    """The link decides a packet's fate and departure at arrival and
    hands the departure to the flow's path: nothing in it is an event."""
    scheduling = ("call_at", "call_later", "heappush")
    found = [
        ast.unparse(call)
        for call in calls(tree_of("sim/link.py"))
        if called_name(call) in scheduling
    ]
    assert not found, found


def test_the_vectorized_fluid_substrate_does_no_instrumentation():
    """Telemetry, trace snapshots and state labels live in the scalar
    loop only; the runner sends every instrumented run there."""
    banned = re.compile(r"\b(obs|trace_interval|state_labels)\b")
    for relative in ("fluidsim/vec.py", "fluidsim/vec_laws.py"):
        text = SOURCES[SRC / "repro" / relative]
        found = sorted(set(banned.findall(text)))
        assert not found, f"{relative}: {found}"
    (batch,) = [
        fn
        for fn in functions(tree_of("fluidsim/vec.py"))
        if fn.name == "run_fluid_vec_batch"
    ]
    params = [arg.arg for arg in batch.args.args + batch.args.kwonlyargs]
    assert params == ["points", "check"]


def test_the_vectorized_windowed_filter_exists_once():
    """``vec_laws`` holds one windowed-filter class, built by every
    kernel with a time window (BBR's bandwidth filter, BBRv2's through
    BBR, Copa's RTT_min filter); no deque and no shadow search are kept
    beside it as a fallback."""
    tree = tree_of("fluidsim/vec_laws.py")
    classes = {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    filters = [
        name
        for name, node in classes.items()
        if any(fn.name == "update" for fn in functions(node))
    ]
    assert filters == ["VecWindowedFilter"]
    builders = [
        name
        for name, node in classes.items()
        if any(called_name(call) in filters for call in calls(node))
    ]
    assert builders == ["VecCopa", "VecBBR"]
    assert [ast.unparse(base) for base in classes["VecBBR2"].bases] == [
        "VecBBR"
    ]
    names = {fn.name for fn in functions(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    banned = re.compile(r"deque|shadow|popleft|appendleft", re.IGNORECASE)
    assert not sorted(name for name in names if banned.search(name))
    assert "collections" not in set(imported_modules(tree))


# -- one place repeats a point -----------------------------------------------

RUNNER = SRC / "repro" / "experiments" / "runner.py"


def test_a_point_is_one_seed():
    """A point is one simulation at one seed: ``ScenarioPoint`` has no
    ``trials``, the runner runs each point once (no ``islice`` over a
    pooled batch, no ``_aggregate_trials``), and only the runner builds
    the seed offsets of repeated runs (``seed_points``) — a loop over
    ``trials`` or a ``seed=`` computed by arithmetic anywhere else is a
    second way to repeat."""
    from dataclasses import fields

    from repro.exec import ScenarioPoint

    assert "trials" not in {f.name for f in fields(ScenarioPoint)}
    for name in ("islice", "_aggregate_trials"):
        assert name not in SOURCES[RUNNER], name
    found = []
    for path, tree in TREES.items():
        if path == RUNNER:
            continue
        where = path.relative_to(SRC).as_posix()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and called_name(node) == "range"
                and "trials" in ast.unparse(node)
            ) or (
                isinstance(node, ast.keyword)
                and node.arg == "seed"
                and isinstance(node.value, ast.BinOp)
            ):
                found.append(f"{where}: {ast.unparse(node)}")
    assert not found, found


# -- one bus per simulation ---------------------------------------------------

AMBIENT = ("use", "set_default", "get_default", "resolve")


def test_the_bus_is_handed_to_one_run():
    """A telemetry bus is an argument of the one simulation it records,
    never a process default: no point can run dark in a worker or from
    the cache, and no trace merges points or trials under one flow id.
    Only ``simulate`` writes a bus trace, and ``report`` is the one view
    of its counters (no ``--profile``)."""
    from repro import obs
    from repro.cli import build_parser
    from repro.obs import bus
    from tests.identity import parser_surface

    for module in (bus, obs):
        found = [name for name in AMBIENT if hasattr(module, name)]
        assert not found, f"{module.__name__}: {found}"
    imports = [
        f"{path.relative_to(SRC).as_posix()}: {alias.name}"
        for path, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module in ("repro.obs", "repro.obs.bus")
        for alias in node.names
        if alias.name in AMBIENT
    ]
    assert not imports, imports

    surface = parser_surface(build_parser()).items()
    assert [cmd for cmd, opts in surface if "--trace-out" in opts] == [
        "simulate"
    ]
    assert not [cmd for cmd, opts in surface if "--profile" in opts]


RETIRED_RECORDERS = re.compile(
    r"\b(?:CwndTracer|TraceSample|trace_interval|loss_events)\b"
    r"|repro\.analysis\.timeseries"
)


def test_a_run_is_recorded_on_its_bus():
    """A run's time series are the samples and events on the bus it is
    handed: no packet tracer beside it, no fluid snapshot list or
    victim log, no second sampling knob, no time-series helpers over
    them."""
    found = [
        f"{path.relative_to(SRC).as_posix()}: {match}"
        for path, text in SOURCES.items()
        for match in sorted(set(RETIRED_RECORDERS.findall(text)))
    ]
    assert not found, found
    assert not (SRC / "repro" / "analysis" / "timeseries.py").exists()
    core = tree_of("fluidsim/core.py")
    (init,) = [
        fn
        for node in ast.walk(core)
        if isinstance(node, ast.ClassDef) and node.name == "FluidSimulation"
        for fn in node.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
    ]
    (run_fluid,) = [fn for fn in functions(core) if fn.name == "run_fluid"]
    knobs = ["dt", "loss_mode", "seed", "start_jitter", "obs", "check"]
    assert parameters(init) == ["self", "link", "flows", *knobs]
    assert parameters(run_fluid) == [
        "link", "flows", "duration", "warmup", *knobs
    ]


# -- an algorithm is its law ------------------------------------------------

#: Variant switches no scenario request can set: an algorithm runs the
#: one variant its law module defines.
VARIANT_SWITCHES = {
    "fast_convergence",
    "tcp_friendly",
    "beta",
    "gain_cycling",
    "delta",
    "competitive_mode",
    "initial_rate",
    "latency_coeff",
    "loss_coeff",
    "cc_kwargs",
}


def test_an_algorithm_is_its_law():
    """A flow spec names an algorithm and nothing else: no per-flow
    keyword bag, no constructor switch on any adapter of any substrate,
    no switch as a parameter or attribute anywhere in ``src/``."""
    import dataclasses
    import inspect

    from repro.cc.laws import registry
    from repro.fluidsim import FluidSpec
    from repro.fluidsim.vec_laws import VecKernel
    from repro.sim import FlowSpec

    assert not [p for p, text in SOURCES.items() if "cc_kwargs" in text]
    for spec in (FlowSpec, FluidSpec):
        fields = [f.name for f in dataclasses.fields(spec)]
        assert fields == ["cc", "rtt", "start_time"], spec
    shapes = {
        registry.packet_class: ["mss"],
        registry.fluid_class: ["flow_id", "rtt", "start_time", "mss"],
        registry.vec_class: ["rows", "rtt", "mss", "rtt_ticks", "steps"],
    }
    for adapter, shape in shapes.items():
        for name in registry.canonical_names():
            init = adapter(name).__init__
            params = list(inspect.signature(init).parameters)
            assert params == ["self", *shape], name
    assert not any(
        hasattr(cls, "_allowed_kwargs")
        for cls in [VecKernel, *map(registry.vec_class, registry.ALGORITHMS)]
    )
    found = []
    for path, tree in TREES.items():
        where = path.relative_to(SRC).as_posix()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = set(parameters(node))
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Store
            ):
                names = {node.attr}
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                names = {node.target.id}
            else:
                continue
            found += [f"{where}: {n}" for n in names & VARIANT_SWITCHES]
    assert not found, found


# -- one execution record, one wall-time record -----------------------------


def test_the_engine_counts_once_and_profiles_nothing():
    """``Engine.stats`` is the engine's one record and spans are the one
    timing record: no per-point profiler (it forced units of one, a
    program normal runs never execute), no ``exec.*`` bus counters, no
    bus timers, no knobs for any of them."""
    from repro.exec import Engine
    from repro.obs import Telemetry

    (init,) = [
        fn
        for fn in functions(tree_of("exec/engine.py"))
        if fn.name == "__init__"
    ]
    assert parameters(init) == [
        "self", "jobs", "cache", "progress", "heartbeat"
    ]
    engine = Engine()
    for name in ("run_mix", "hotspots", "profiled"):
        assert not hasattr(engine, name), name
    bus = Telemetry()
    for name in ("timers", "record_time", "timeit"):
        assert not hasattr(bus, name), name

    banned = (
        "cProfile", "profile_slowest", "hotspots", "record_time(",
        'obs.count("exec.',
    )
    found = [
        f"{path.relative_to(SRC).as_posix()}: {word}"
        for path, text in SOURCES.items()
        for word in banned
        if word in text
    ]
    assert not found, found


# -- one record per run fact ------------------------------------------------


def test_each_run_fact_is_written_once():
    """``results.csv`` is a campaign's one row record, the JSONL trace a
    run's one record (manifest and counters included), the bus keeps no
    write-only gauges, and ``TieredOracle.stats`` is the one record of
    the oracle's work."""
    import inspect

    from repro import campaign, obs
    from repro.campaign import CampaignSpec
    from repro.obs import RunManifest, Telemetry, write_trace
    from repro.population import TieredOracle, run_population
    from repro.population.run import population_rounds

    assert not hasattr(campaign, "JsonlSink")
    assert "jsonl_name" not in CampaignSpec.__dataclass_fields__
    bus = Telemetry()
    for name in ("gauge", "gauges"):
        assert not hasattr(bus, name), name
    for name in ("GaugeStat", "tracer_samples", "manifest_path_for"):
        assert not hasattr(obs, name), name
    assert "counters" not in RunManifest.__dataclass_fields__
    for name in ("write", "load"):
        assert not hasattr(RunManifest, name), name
    assert list(inspect.signature(write_trace).parameters) == [
        "path", "obs", "manifest"
    ]
    for fn in (TieredOracle.__init__, run_population, population_rounds):
        assert "obs" not in inspect.signature(fn).parameters, fn

    found = [
        f"{path.relative_to(SRC).as_posix()}: {word}"
        for path, text in SOURCES.items()
        for word in ("obs.gauge(", 'count("population.')
        if word in text
    ]
    assert not found, found


# -- one writer of results/ --------------------------------------------------

#: The environment knobs of the retired pytest path that wrote results/.
RETIRED_KNOBS = ("REPRO_SCALE", "REPRO_RESULTS_DIR")


def program_files():
    """Every file a program here reads: code, specs, CI."""
    yield from ROOT.glob("*.py")
    yield from ROOT.glob("*.toml")
    for top in ("src", "tests", "benchmarks", "examples", ".github"):
        for path in (ROOT / top).rglob("*"):
            if path.suffix in (".py", ".toml", ".yml"):
                yield path


def test_results_have_one_writer():
    """``FigureResult.save``, behind ``figure --csv-dir``, writes
    ``results/``: no benchmark regenerates a figure or states a finding
    through fixtures or knobs of its own, and nothing else in ``src/``
    writes a figure CSV.  The claims over ``results/`` live in
    ``tests/test_claims.py``; ``benchmarks/`` holds the e2e harness and
    the population trajectory that ROADMAP item 1(c) retires."""
    bench = ROOT / "benchmarks"
    strays = [
        path.name
        for path in [*bench.glob("test_*.py"), *bench.glob("conftest.py")]
        if path.name != "test_perf_population.py"
    ]
    assert not strays, strays
    here = Path(__file__).resolve()
    readers = [
        path.relative_to(ROOT).as_posix()
        for path in program_files()
        if path != here
        and any(knob in path.read_text() for knob in RETIRED_KNOBS)
    ]
    assert not readers, readers
    writers = [
        (path.relative_to(SRC).as_posix(), fn.name)
        for path, tree in TREES.items()
        for fn in functions(tree)
        if any(called_name(call) == "to_csv" for call in calls(fn))
    ]
    assert writers == [("repro/experiments/results.py", "save")], writers


# -- one declaration of a bottleneck -----------------------------------------


def test_a_bottleneck_is_declared_once():
    """AQM, ECN, MSS and capacity trace reach a substrate through
    ``BottleneckSpec`` alone: no second config type, no per-call
    override, one name inside ``src/`` and no fallback for links that
    lack the spec's fields."""
    aqm = tree_of("sim/aqm.py")
    configs = [
        node.name
        for node in ast.walk(aqm)
        if isinstance(node, ast.ClassDef) and node.name.endswith("Config")
    ]
    assert not configs, configs

    network = tree_of("sim/network.py")
    (run,) = [fn for fn in functions(network) if fn.name == "run_dumbbell"]
    assert parameters(run) == [
        "link", "flows", "duration", "warmup", "obs", "check"
    ]
    (dumbbell,) = [
        node
        for node in ast.walk(network)
        if isinstance(node, ast.ClassDef) and node.name == "DumbbellNetwork"
    ]
    (init,) = [fn for fn in functions(dumbbell) if fn.name == "__init__"]
    assert parameters(init) == ["self", "link", "flows", "obs", "check"]

    public = {"util/config.py", "util/__init__.py", "__init__.py"}
    named = [
        where
        for path, text in SOURCES.items()
        if (where := path.relative_to(SRC / "repro").as_posix()) not in public
        and "LinkConfig" in text
    ]
    assert not named, named

    # The CLI's parsed ``args`` lack the scenario flags on commands
    # without them; a link never lacks the fields.
    fallbacks = [
        f"{path.name}: {ast.unparse(call)}"
        for path, tree in TREES.items()
        for call in calls(tree)
        if called_name(call) == "getattr"
        and len(call.args) >= 2
        and isinstance(call.args[1], ast.Constant)
        and call.args[1].value in ("aqm", "capacity_trace")
        and ast.unparse(call.args[0]) != "args"
    ]
    assert not fallbacks, fallbacks


# -- one game ----------------------------------------------------------------


def test_each_game_question_is_defined_once():
    questions = (
        "is_nash",
        "nash_equilibria",
        "best_response_step",
        "best_response_path",
    )
    defined = Counter(
        fn.name
        for tree in TREES.values()
        for fn in functions(tree)
        if fn.name in questions
    )
    assert defined == dict.fromkeys(questions, 1)


# -- one campaign driver -----------------------------------------------------


def test_the_campaign_layer_has_no_concurrency_of_its_own():
    banned = ("threading", "concurrent.futures", "multiprocessing")
    for path, tree in TREES.items():
        if "campaign" not in path.relative_to(SRC).parts:
            continue
        found = [
            module
            for module in imported_modules(tree)
            if module.startswith(banned)
        ]
        assert not found, f"{path}: imports {found}"


#: The one module that imports numpy, and so the one place OpenBLAS
#: can start its thread pool: it loads numpy with one BLAS thread.
NUMPY_LOADER = "repro/fluidsim/mathops.py"


def test_no_thread_pool_anywhere():
    """No ``ThreadPoolExecutor``, and numpy -- whose OpenBLAS starts a
    pool when it loads -- is imported by ``NUMPY_LOADER`` only."""
    for path, text in SOURCES.items():
        assert "ThreadPoolExecutor" not in text, path
    importers = sorted(
        str(path.relative_to(SRC))
        for path, tree in TREES.items()
        if any(
            module.split(".")[0] == "numpy"
            for module in imported_modules(tree)
        )
    )
    assert importers == [NUMPY_LOADER]


def test_the_bisection_loop_exists_once():
    """The loop is ``while hi - lo > 1`` wherever it lives."""
    holders = [
        f"{path.relative_to(SRC)}:{fn.name}"
        for path, tree in TREES.items()
        for fn in functions(tree)
        if any(
            isinstance(node, ast.While)
            and ast.unparse(node.test).replace(" ", "") == "hi-lo>1"
            for node in ast.walk(fn)
        )
    ]
    assert holders == ["repro/core/game.py:bisect_rounds"]


def test_the_stage_driver_is_the_one_run_points_call_in_vocab():
    path = SRC / "repro" / "campaign" / "vocab.py"
    assert SOURCES[path].count("run_points(") == 1
    assert "run_points(" in ast.unparse(
        next(fn for fn in functions(TREES[path]) if fn.name == "_in_rounds")
    )


def test_stage_run_has_no_sequential_field():
    from repro.campaign.vocab import StageRun

    assert StageRun._fields == ("spec", "engine", "artifacts")


# -- CI runs the suite, it does not hold checks ------------------------------

#: What a package ``__init__`` may import of its own subtree: the
#: loader.  ``repro.scenario`` re-exports its one module eagerly.
INIT_LOADER = "repro.util.lazy"


def test_no_package_init_imports_its_submodules():
    """Every package re-exports lazily (``repro.util.lazy``), so a
    process that imports one submodule does not load its siblings."""
    eager = []
    for path, tree in TREES.items():
        package = ".".join(path.relative_to(SRC).parent.parts)
        if path.name != "__init__.py" or package == "repro.scenario":
            continue
        eager += [
            f"{package}: {module}"
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for module in imported_modules(node)
            if module.startswith(package + ".") and module != INIT_LOADER
        ]
    assert not eager, "\n".join(eager)


#: What a CI step may not run: a ``grep`` / ``cmp`` / ``diff`` gate, a
#: ``test "$(...)"`` count, or inline Python.
CI_GATES = re.compile(
    r"""\b(grep|cmp|diff)\b|test "\$\(|python3?\s+-(c\b|\s|$)"""
)


def test_ci_runs_no_checks_of_its_own():
    """New checks belong in ``tests/`` (tier-1) or ``tests/smoke.py``,
    where every builder runs them with the same command CI does."""
    workflow = ROOT / ".github" / "workflows" / "ci.yml"
    found = [
        f"ci.yml:{number}: {line.strip()}"
        for number, line in enumerate(workflow.read_text().splitlines(), 1)
        if not line.lstrip().startswith("#") and CI_GATES.search(line)
    ]
    assert not found, "\n".join(found)


def _versions(text):
    """Every ``3.N`` in ``text``, as comparable tuples."""
    return [
        tuple(map(int, version.split(".")))
        for version in re.findall(r"\b3\.\d+\b", text)
    ]


def test_the_declared_python_floor_is_the_oldest_ci_tests():
    """``requires-python`` names the oldest interpreter CI runs the
    suite on, so a newer-only construct (``dataclass(slots=True)``
    needs 3.10) cannot slip under the floor unseen."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=([\d.]+)"$', pyproject, re.M)
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    tested = [
        version
        for line in workflow.splitlines()
        if line.strip().startswith("python-version:")
        for version in _versions(line)
    ]
    assert _versions(floor.group(1)) == [min(tested)]
