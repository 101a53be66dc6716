"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import importlib
import io
import re
import tokenize
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
    # read in src/ itself: a helper that only tests call belongs in tests/
    read: set[str] = set()
    for path in SRC.glob("*.py"):
        read |= names_read(path.read_text(encoding="utf-8"))
    dead = [
        f"{path.name} line {line}: {name}"
        for path in MODULES
        for name, line in private_definitions(path.read_text(encoding="utf-8")).items()
        if name not in read
    ]
    assert dead == []


PRIVATE_NAME = re.compile(r"(?<!\w)_[A-Za-z]\w*")


def prose_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of each ``_name`` in a module's docstrings and comments,
    dotted ones included (``mod._name`` gives ``_name``); dunders are not
    matched."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if ast.get_docstring(node, clean=False) is None:
            continue
        first = node.body[0]
        text = first.value.value
        found += [
            (first.lineno + text.count("\n", 0, m.start()), m.group())
            for m in PRIVATE_NAME.finditer(text)
        ]
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            found += [(tok.start[0], m.group()) for m in PRIVATE_NAME.finditer(tok.string)]
    return sorted(found)


def markdown_code_names(text: str) -> list[tuple[int, str]]:
    """(line, name) of each ``_name`` inside a backtick span of a Markdown
    text, fenced blocks aside."""
    text = re.sub(r"^```.*?^```", lambda m: "\n" * m.group().count("\n"), text, flags=re.S | re.M)
    return [
        (text.count("\n", 0, span.start()) + 1, m.group())
        for span in re.finditer(r"`[^`]+`", text)
        for m in PRIVATE_NAME.finditer(span.group())
    ]


def defined_names(source: str) -> set[str]:
    """Every function, class and assigned name of a module, attributes
    assigned through ``self.`` or another object included."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def test_prose_name_scan_catches_one():
    source = (
        '"""Reads ``_kept`` and ``mod._gone``; __init__ is no private name."""\n'
        "_kept = 1  # unlike _stale\n\n"
        'def f():\n    """Calls _helper."""\n    return _kept\n'
    )
    assert prose_names(source) == [(1, "_gone"), (1, "_kept"), (2, "_stale"), (5, "_helper")]
    assert defined_names(source) == {"_kept", "f"}
    readme = "The `_kept` name, not `x._stale`.\n```sh\necho `_fenced`\n```\nAnd\n`_late`.\n"
    assert markdown_code_names(readme) == [(1, "_kept"), (1, "_stale"), (6, "_late")]


def test_private_names_in_prose_exist():
    # prose that names a deleted helper goes stale without a failure
    sources = {path: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    known = {path.stem for path in sources}.union(*map(defined_names, sources.values()))
    readme = TESTS.parent / "README.md"
    named = [(path.name, line, name) for path, src in sources.items() for line, name in prose_names(src)]
    named += [
        (readme.name, line, name)
        for line, name in markdown_code_names(readme.read_text(encoding="utf-8"))
    ]
    assert [f"{file} line {line}: {name}" for file, line, name in named if name not in known] == []


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


def imports_of(source: str, package: str) -> list[str]:
    """Imports of a package anywhere in a module, function bodies
    included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m.split(".")[0] == package]
    return [f"line {line}: {module}" for line, module in sorted(found)]


# the dense kernels and the CSV grid; every other module is numpy-free
NUMPY_MODULES = {"metric.py", "fileio.py"}


def test_numpy_import_scan_catches_one():
    source = (
        "import numpyish\nfrom . import numpy\n"
        "def pack(rows):\n    import numpy.lib as nl\n    return nl\n"
        "class Grid:\n    def view(self):\n        from numpy import frombuffer\n"
    )
    assert imports_of(source, "numpy") == ["line 4: numpy.lib", "line 8: numpy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_numpy_imports_only_in_the_dense_modules(path):
    # kernels that need numpy live in metric and fileio; each of those
    # still imports it, so the list is not stale
    found = imports_of(path.read_text(encoding="utf-8"), "numpy")
    assert bool(found) == (path.name in NUMPY_MODULES), found


def test_click_import_scan_catches_one():
    source = (
        "import clickhouse\nfrom . import click\n"
        "def main():\n    import click.testing\n    return click\n"
        "from click import echo\n"
    )
    assert imports_of(source, "click") == ["line 4: click.testing", "line 6: click"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_click_import(path):
    # the command line is built on argparse, so no command loads click
    assert imports_of(path.read_text(encoding="utf-8"), "click") == []


def test_dataclasses_import_scan_catches_one():
    source = (
        "from ._dataclasses import field\n"
        "def make():\n    from dataclasses import dataclass\n    return dataclass\n"
        "import dataclasses as dc\n"
    )
    assert imports_of(source, "dataclasses") == [
        "line 3: dataclasses", "line 5: dataclasses"
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    # dataclasses loads inspect, ast, dis and tokenize, which no command
    # needs: the records are plain classes with __slots__
    assert imports_of(path.read_text(encoding="utf-8"), "dataclasses") == []


def _is_call(node, func: str, *args: str) -> bool:
    """Whether node calls the function with this dotted name on exactly
    these arguments, as source text."""
    return (
        isinstance(node, ast.Call)
        and ast.unparse(node.func) == func
        and [ast.unparse(a) for a in node.args] == list(args)
    )


def exit_two_breaches(source: str) -> list[str]:
    """Places in a command-line module that go round the one handler in
    ``main`` that turns a SieveclusterError into exit 2: a handler that
    catches SieveclusterError, alone or in a tuple, only to call
    ``_fail_input(str(exc))`` (the error would reach main unchanged), and
    a ``sys.exit(2)`` outside ``main``."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "")
        for node in ast.walk(top):
            if _is_call(node, "sys.exit", "2") and owner != "main":
                found.append(f"line {node.lineno}: sys.exit(2) in {owner or 'the module'}")
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            only = node.body[0] if len(node.body) == 1 else None
            if (
                "SieveclusterError" in map(ast.unparse, caught)
                and isinstance(only, ast.Expr)
                and _is_call(only.value, "_fail_input", f"str({node.name})")
            ):
                found.append(f"line {node.lineno}: re-raised in {owner}")
    return found


def test_exit_two_breach_scan_catches_one():
    source = (
        "def load(p):\n    try:\n        return read(p)\n"
        "    except (SieveclusterError, KeyError) as exc:\n        _fail_input(str(exc))\n"
        "def show(p):\n    try:\n        return read(p)\n"
        "    except SieveclusterError as exc:\n        _fail_input(f'{p}: {exc}')\n"
        "    except ValueError as exc:\n        _fail_input(str(exc))\n"
        "def bail():\n    sys.exit(2)\n"
        "def main():\n    try:\n        run()\n"
        "    except SieveclusterError as err:\n        _fail_input(str(err))\n"
        "    sys.exit(2)\n"
        "sys.exit(2)\n"
    )
    assert exit_two_breaches(source) == [
        "line 4: re-raised in load",
        "line 14: sys.exit(2) in bail",
        "line 18: re-raised in main",
        "line 21: sys.exit(2) in the module",
    ]


def test_cli_turns_library_errors_into_exit_two_in_main_alone():
    assert exit_two_breaches((SRC / "cli.py").read_text(encoding="utf-8")) == []


def _owner_of(tree: ast.Module):
    """(top-level definition's name, node) for every node of a module;
    the name is "" outside any definition."""
    for top in tree.body:
        for node in ast.walk(top):
            yield getattr(top, "name", ""), node


def plain_value_errors(source: str) -> list[tuple[int, str]]:
    """(line, owner) of each ``raise ValueError``, called or bare, where
    owner is the top-level function or class around it. The library
    refuses an argument with InvalidArgument, which main turns into exit
    2; a plain ValueError would be a traceback."""
    found = []
    for owner, node in _owner_of(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if ast.unparse(exc) == "ValueError":
                found.append((node.lineno, owner))
    return found


def test_plain_value_error_scan_catches_one():
    source = (
        "def f(x):\n    if x:\n        raise ValueError(x)\n    raise InvalidArgument(x)\n"
        "class C:\n    def g(self):\n        raise ValueError\n"
        "def h():\n    raise TypeError('no')\n"
    )
    assert plain_value_errors(source) == [(3, "f"), (7, "C")]


def test_the_library_raises_no_plain_value_error():
    # the one left mirrors json.dumps on a non-finite float
    found = [
        (path.name, owner)
        for path in MODULES
        for _, owner in plain_value_errors(path.read_text(encoding="utf-8"))
    ]
    assert found == [("fileio.py", "_sieve_json")]


def builtin_error_handlers(source: str) -> list[tuple[int, str]]:
    """(line, owner) of each handler that catches ValueError, TypeError or
    KeyError, alone or in a tuple."""
    found = []
    for owner, node in _owner_of(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if {"ValueError", "TypeError", "KeyError"} & set(map(ast.unparse, caught)):
                found.append((node.lineno, owner))
    return found


def test_builtin_error_handler_scan_catches_one():
    source = (
        "def f():\n    try:\n        g()\n    except (OSError, KeyError):\n        pass\n"
        "    except SieveclusterError:\n        pass\n"
        "def h():\n    try:\n        g()\n    except ValueError:\n        pass\n"
    )
    assert builtin_error_handlers(source) == [(4, "f"), (11, "h")]


def test_cli_catches_no_builtin_error_but_in_parsing_its_own_strings():
    # the library raises InvalidArgument, a SieveclusterError, which main
    # alone turns into exit 2; only _parse_level converts a string itself
    found = builtin_error_handlers((SRC / "cli.py").read_text(encoding="utf-8"))
    assert [owner for _, owner in found] == ["_parse_level"]


def test_invalid_argument_is_a_library_error_and_a_value_error():
    from sievecluster.errors import InvalidArgument, SieveclusterError

    assert issubclass(InvalidArgument, SieveclusterError)
    assert issubclass(InvalidArgument, ValueError)
