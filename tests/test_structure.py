"""Source-shape gates: what ``src/`` must not grow back.

Each test reads the tree (AST or text, well under a second) and fails
on a *second* way of doing something the repo does one way.  They pin
decisions, not style: the campaign layer has no concurrency of its own
(a stage's units advance in rounds through one ``Engine.run_points``
batch — ``repro.campaign.vocab._in_rounds``), and the NE bisection
exists once, as a round generator.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
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
