"""Source-shape gates: what ``src/`` must not grow back.

Each test reads the tree (AST or text, well under a second) and fails
on a *second* way of doing something the repo does one way.  They pin
decisions, not style: one route from a request to a substrate, one
game, an event-driven packet path without per-packet closures, a
campaign layer with no concurrency of its own (a stage's units advance
in rounds through one ``Engine.run_points`` batch —
``repro.campaign.vocab._in_rounds``), and one NE bisection, as a round
generator.  The last gate keeps CI from growing gates of its own: a
check belongs here, or in ``tests/smoke.py``.
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


def test_no_thread_pool_anywhere():
    for path, text in SOURCES.items():
        assert "ThreadPoolExecutor" not in text, path


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
