"""Every imported name in ``src/`` and ``tests/`` is used.

Each module is parsed with :mod:`ast`.  A name is used when it is read
anywhere in its module, in a string annotation too, or listed in the
module's ``__all__``.  An import on a line marked ``# noqa: F401`` is kept
on purpose and not checked; ``from __future__`` imports are directives.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Each name an import binds, with the line of its alias."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    names[alias.asname or alias.name.split(".")[0]] = alias.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """The names read in ``tree``, its string annotations and ``__all__``."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                        if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree, text.splitlines()).items()
              if name not in used}
    assert unused == {}, f"{path.name}: imported and never used (name: line)"


def test_an_unused_import_is_found():
    text = "import os\nfrom typing import Tuple, Sequence\nx: Sequence[int] = ()\n"
    tree = ast.parse(text)
    names = imported_names(tree, text.splitlines())
    assert {n: line for n, line in names.items() if n not in used_names(tree)} == {
        "os": 1, "Tuple": 2}
