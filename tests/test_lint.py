"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "sievecluster"
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.

    A read is a bare name, or the first part of a dotted one, anywhere in
    the module, type annotations included. ``__future__`` imports are
    directives, not bindings, and are ignored.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_unused_import_scan_catches_one():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nprint(np, sep)\n"
    assert unused_imports(source) == ["line 1: math", "line 3: path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> dict[str, int]:
    """Top-level ``_name``s a module defines, with their line numbers:
    functions, classes and assignment targets (dunders excluded)."""
    out: dict[str, int] = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out.setdefault(name, node.lineno)
    return out


def names_read(source: str) -> set[str]:
    """Bare names loaded and attributes accessed anywhere in a module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_dead_private_name_scan_catches_one():
    source = "_USED = 1\n_DEAD = 2\n\ndef _helper():\n    return _USED\n"
    defined = private_definitions(source)
    assert defined == {"_USED": 1, "_DEAD": 2, "_helper": 4}
    assert sorted(set(defined) - names_read(source)) == ["_DEAD", "_helper"]


def test_no_dead_private_names():
    read: set[str] = set()
    for path in [*SRC.glob("*.py"), *TESTS.glob("*.py")]:
        read |= names_read(path.read_text(encoding="utf-8"))
    dead = [
        f"{path.name} line {line}: {name}"
        for path in MODULES
        for name, line in private_definitions(path.read_text(encoding="utf-8")).items()
        if name not in read
    ]
    assert dead == []
