"""The lint subset that needs no linter: line length, trailing
whitespace, unused imports and f-strings without placeholders, over the
files ``ruff check`` covers.

CI runs ``ruff check`` as well (config in ``pyproject.toml``) for the
rules these do not cover, such as import order.  These four run
anywhere the test suite runs, the same way every time, in well under a
second.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LINE_LENGTH = int(
    re.search(
        r"^line-length = (\d+)$",
        (ROOT / "pyproject.toml").read_text(),
        re.MULTILINE,
    ).group(1)
)
FILES = {
    path: path.read_text(encoding="utf-8")
    for top in ("src", "tests", "benchmarks", "examples")
    for path in sorted((ROOT / top).rglob("*.py"))
}
NOQA = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z]+\d+(?:[,\s]+[A-Z]+\d+)*))?",
    re.IGNORECASE,
)


def suppressed(line, code):
    """Whether ``line`` carries a bare ``# noqa`` or one naming
    ``code``."""
    match = NOQA.search(line)
    return bool(match) and (
        not match["codes"] or code in match["codes"].upper()
    )


def too_long(line):
    """ruff's E501: a line wider than the limit, unless it is one
    "word" or ends with a URL that starts within the limit."""
    if len(line) <= LINE_LENGTH or suppressed(line, "E501"):
        return False
    words = line.split()
    if len(words) == 1:
        return False
    return not (
        "://" in words[-1] and len(line) - len(words[-1]) <= LINE_LENGTH
    )


def offenders(predicate):
    return "\n".join(
        f"{path.relative_to(ROOT)}:{number}"
        for path, text in FILES.items()
        for number, line in enumerate(text.splitlines(), 1)
        if predicate(line)
    )


def test_lines_fit_the_configured_width():
    found = offenders(too_long)
    assert not found, f"over {LINE_LENGTH} columns:\n{found}"


def test_no_trailing_whitespace():
    found = offenders(lambda line: line != line.rstrip())
    assert not found, f"trailing whitespace:\n{found}"


def string_annotation_names(annotation):
    """Names inside string annotations (``"Engine"``,
    ``Optional["Engine"]``), which the AST holds as constants."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from (
                name.id
                for name in ast.walk(parsed)
                if isinstance(name, ast.Name)
            )


def unused_imports(path, text):
    """F401, module-wide: an imported name no expression, string
    annotation or ``__all__`` mentions (a coarser scope than pyflakes',
    so it can miss an unused import but not invent one)."""
    imports, used, annotations = [], set(), []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imports.extend((node, alias) for alias in node.names)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif (
            isinstance(node, ast.Assign)
            and ast.unparse(node.targets[0]) == "__all__"
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(getattr(e, "value", None) for e in node.value.elts)
    for annotation in filter(None, annotations):
        used.update(string_annotation_names(annotation))
    lines = text.splitlines()
    for node, alias in imports:
        bound = alias.asname or alias.name.split(".")[0]
        if bound in used or alias.name == "*":
            continue
        marks = (lines[node.lineno - 1], lines[alias.lineno - 1])
        if not any(suppressed(line, "F401") for line in marks):
            yield f"{path.relative_to(ROOT)}:{alias.lineno}: {bound}"


def test_no_unused_imports():
    found = "\n".join(
        entry
        for path, text in FILES.items()
        for entry in unused_imports(path, text)
    )
    assert not found, f"unused imports:\n{found}"


def placeholderless_fstrings(path, text):
    """F541: an f-string with no placeholder.  Implicitly concatenated
    parts are one f-string, as ruff counts them; a format spec
    (``{x:.1f}``) is not an f-string of its own."""
    tree = ast.parse(text)
    specs = {
        id(node.format_spec)
        for node in ast.walk(tree)
        if isinstance(node, ast.FormattedValue) and node.format_spec
    }
    lines = text.splitlines()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.JoinedStr)
            and id(node) not in specs
            and not any(
                isinstance(part, ast.FormattedValue) for part in node.values
            )
            and not any(
                suppressed(line, "F541")
                for line in lines[node.lineno - 1 : node.end_lineno]
            )
        ):
            yield f"{path.relative_to(ROOT)}:{node.lineno}"


def test_no_fstrings_without_placeholders():
    found = "\n".join(
        entry
        for path, text in FILES.items()
        for entry in placeholderless_fstrings(path, text)
    )
    assert not found, f"f-strings without placeholders:\n{found}"


def test_the_fstring_check_sees_what_ruff_sees():
    text = (
        'a = f"none"\n'
        'b = f"{a}"\n'
        'c = f"{a:.1f}" f"joined"\n'
        'd = f"skip"  # noqa: F541\n'
        'e = (f"two "\n'
        '     "lines")\n'
        'g = f"{a!r:>{b}}"\n'
    )
    path = ROOT / "example.py"
    assert list(placeholderless_fstrings(path, text)) == [
        "example.py:1",
        "example.py:5",
    ]
