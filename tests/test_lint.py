"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import importlib
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


def self_recursive_functions(source: str) -> list[str]:
    """Functions that call themselves by name: ``f(...)`` inside ``def f``,
    or ``self.f(...)`` / ``cls.f(...)`` inside a method ``f``. Deep inputs
    overflow the interpreter stack there, so kernels keep explicit stacks."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if (isinstance(f, ast.Name) and f.id == node.name) or (
                isinstance(f, ast.Attribute)
                and f.attr == node.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
            ):
                found.append(f"line {node.lineno}: {node.name}")
                break
    return found


def test_self_recursion_scan_catches_one():
    source = (
        "def fact(n):\n    return 1 if n < 2 else n * fact(n - 1)\n\n"
        "def total(n):\n    return sum(range(n))\n\n"
        "class Tree:\n    def size(self):\n        return 1 + self.size()\n"
    )
    assert self_recursive_functions(source) == ["line 1: fact", "line 8: size"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_self_recursion(path):
    assert self_recursive_functions(path.read_text(encoding="utf-8")) == []


def tracer_targets() -> list[tuple[str, str]]:
    """(module, attribute path) pairs of ``TARGETS`` in bench/tracer.py,
    read from its syntax tree: the benchmark is not imported."""
    tree = ast.parse((TESTS.parent / "bench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(module, path) for module, path, _ in ast.literal_eval(node.value)]
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_tracer_targets_resolve():
    targets = tracer_targets()
    assert ("_bitops", "_max_flow_vertex_cut") in targets
    missing = []
    for module, path in targets:
        owner = importlib.import_module(f"sievecluster.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert missing == []


def assert_statements(source: str) -> list[int]:
    """Line numbers of ``assert`` statements. ``python -O`` strips them, so
    a guard written as one silently stops guarding."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_scan_catches_one():
    source = "def f(x):\n    assert x > 0, 'positive'\n    if x > 1:\n        raise ValueError(x)\n"
    assert assert_statements(source) == [2]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_statements(path.read_text(encoding="utf-8")) == []


def top_level_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of the absolute imports that run when a module is
    executed: every import statement outside a function body, at top level
    or nested in an if, try or class body."""
    found = []
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                found.append((node.lineno, node.module))
        else:
            stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def numpy_imports(source: str) -> list[str]:
    return [
        f"line {line}: {module}"
        for line, module in top_level_imports(source)
        if module.split(".")[0] == "numpy"
    ]


def test_top_level_numpy_scan_catches_one():
    source = (
        "import math\nimport numpy as np\n"
        "try:\n    from numpy.linalg import norm\nexcept ImportError:\n    pass\n"
        "def f():\n    import numpy\n    return numpy\n"
        "g = lambda: __import__('numpy')\n"
    )
    assert numpy_imports(source) == ["line 2: numpy", "line 4: numpy.linalg"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_top_level_numpy_import(path):
    """Small inputs run without numpy: a module imports it only inside the
    function that needs it, so loading the module never does."""
    assert numpy_imports(path.read_text(encoding="utf-8")) == []
