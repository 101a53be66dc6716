"""Start-up cost: what importing the package and the CLI loads.

The package resolves its public names on first use, and each CLI command
imports the library functions it calls, so ``--help``, ``--version`` and
usage errors run without numpy or the kernels. Import order only shows in
a fresh interpreter, so those checks run in a subprocess started in
``src/``.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import sievecluster
import sievecluster.functors
from sievecluster.fileio import ingest_space, write_matrix_csv
from test_point_grid import _cloud_text

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HEAVY = (
    "numpy",
    "sievecluster.fileio",
    "sievecluster.functors",
    "sievecluster.sieves",
    "sievecluster.verify",
)


def _run_in_src(code: str, *flags: str) -> str:
    done = subprocess.run(
        [sys.executable, *flags, "-c", code],
        cwd=SRC,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_start_up_loads_no_kernels():
    code = f"""
import json
import sys
import sievecluster.cli

HEAVY = {HEAVY!r}


def loaded():
    return sorted(m for m in HEAVY if m in sys.modules)


seen = {{"import": loaded()}}
for args in (
    ["--help"],
    ["--version"],
    ["cluster", "--help"],
    ["sieve", "--help"],
    ["verify", "functoriality", "--help"],
    ["export-dot", "--help"],
    ["cluster", "missing.csv"],  # usage error: no --method
):
    try:
        sievecluster.cli.main(args, prog_name="sievecluster")
    except SystemExit:
        pass
    seen[" ".join(args)] = loaded()
print("RESULT", json.dumps(seen))
"""
    out = _run_in_src(code)
    result = json.loads(out.splitlines()[-1].removeprefix("RESULT "))
    assert len(result) == 8
    assert result == {key: [] for key in result}


def _numpy_after_each(commands: list[list[str]]) -> list[tuple[int, bool]]:
    """Run CLI commands in turn in one fresh interpreter started in src/,
    output discarded; after each, its exit code and whether numpy is
    loaded."""
    code = f"""
import contextlib
import io
import json
import os
import sys
from sievecluster.cli import main

seen = []
for args in {commands!r}:
    with open(os.devnull, "wb") as sink, contextlib.redirect_stdout(io.TextIOWrapper(sink)):
        try:
            main(args, prog_name="sievecluster")
            code = 0
        except SystemExit as exc:
            code = exc.code or 0
    seen.append((code, "numpy" in sys.modules))
print("RESULT", json.dumps(seen))
"""
    out = _run_in_src(code)
    return [tuple(r) for r in json.loads(out.splitlines()[-1].removeprefix("RESULT "))]


def _cloud_csv(path: Path, n: int) -> str:
    rng = random.Random(n)
    lines = ["label,x,y"] + [f"q{i:03d},{rng.random()!r},{rng.random()!r}" for i in range(n)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_small_inputs_run_without_numpy(tmp_path):
    small = _cloud_csv(tmp_path / "small.csv", 20)
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("label,a,b,c\na,0,1,2\nb,1,0,1\nc,2,1,0\n", encoding="utf-8")
    trials = ["--trials", "600", "--seed", "7"]
    commands = [
        ["sieve", "--method", "ml", small],
        ["sieve", "--method", "sl", small],
        ["sieve", "--method", "vl", "--k", "2", small],
        ["cluster", "--method", "ml", "--delta", "0.3", small],
        ["cluster", "--method", "l", "--k", "2", "--K", "0.5", "--delta", "0.3", small],
        ["cluster", "--method", "sl", "--delta", "1", str(matrix)],
        ["verify", "functoriality", "--method", "ml", "--delta", "0.3", *trials],
        ["verify", "functoriality", "--method", "vl", "--k", "3", "--delta", "0.3",
         "--category", "metinj", *trials],
        ["verify", "functoriality", "--method", "l", "--k", "2", "--K", "1.5",
         "--delta", "0.3", *trials],
        ["verify", "sandwich", "--method", "vl", "--k", "2", "--delta", "0.3", *trials],
        *(
            ["verify", "counterexample", "--method", family, *level, "--delta", "1.0",
             "--max-points", "5"]
            for family, level in (("ml", []), ("sl", []), ("vl", ["--k", "2"]),
                                  ("el", ["--k", "2"]))
        ),
    ]
    assert _numpy_after_each(commands) == [(0, False)] * len(commands)


def test_inputs_at_the_threshold_load_numpy(tmp_path):
    # a dense kernel loads numpy from 128 points on: here the triangle check
    # of a matrix and the distances a sieve sweeps. Each side of the
    # threshold runs in a fresh interpreter, as numpy stays loaded.
    from sievecluster.metric import _NUMPY_MIN_POINTS

    def commands(n):
        cloud = _cloud_csv(tmp_path / f"cloud{n}.csv", n)
        matrix = tmp_path / f"matrix{n}.csv"
        write_matrix_csv(ingest_space(cloud), matrix)
        return [["cluster", "--method", "sl", "--delta", "0.1", str(matrix)],
                ["sieve", "--method", "sl", cloud]]

    below, at = commands(_NUMPY_MIN_POINTS - 1), commands(_NUMPY_MIN_POINTS)
    assert _numpy_after_each(below) == [(0, False), (0, False)]
    assert [_numpy_after_each([args]) for args in at] == [[(0, True)], [(0, True)]]


def test_threshold_families_on_a_large_cloud_run_without_numpy(tmp_path):
    # the families that read only the threshold graph answer from a cell
    # grid of the coordinates; l with a finite budget K reads distances
    cloud = tmp_path / "cloud.csv"
    cloud.write_text(_cloud_text(900, 2), encoding="utf-8")
    dot = str(tmp_path / "g.dot")
    families = [["sl"], ["ml"], ["l", "--k", "2"], ["vl", "--k", "2"], ["el", "--k", "2"],
                ["bk", "--k", "2"], ["bkstar", "--k", "2"]]
    graph_only = [
        ["cluster", "--method", *family, "--delta", "1", "--emit-dot", dot, str(cloud)]
        for family in families
    ] + [["export-dot", "--delta", "1", "--bkstar", "2", str(cloud)]]
    budget = ["cluster", "--method", "l", "--k", "2", "--K", "1.5", "--delta", "1", str(cloud)]
    assert _numpy_after_each(graph_only + [budget]) == [(0, False)] * len(graph_only) + [(0, True)]


def test_command_loads_only_the_modules_it_runs():
    code = f"""
import json
import sys
from sievecluster.cli import main

try:
    main(["param-probe", "--method", "sl", "--delta", "1"], prog_name="sievecluster")
except SystemExit as exc:
    if exc.code:
        raise
print("RESULT", json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
"""
    out = _run_in_src(code)
    loaded = json.loads(out.splitlines()[-1].removeprefix("RESULT "))
    assert loaded == ["sievecluster.functors"]


def _fresh_run(args: list[str]) -> tuple[int, str, list[str]]:
    """Run one CLI command in a fresh interpreter started in src/; its exit
    code, its stdout, and the modules loaded when it ended."""
    code = f"""
import contextlib
import io
import json
import sys
from sievecluster.cli import main

out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
with contextlib.redirect_stdout(out):
    try:
        main({args!r}, prog_name="sievecluster")
    except SystemExit as exc:
        status = exc.code or 0
out.flush()
print("RESULT", json.dumps([status, out.buffer.getvalue().decode(), sorted(sys.modules)]))
"""
    out = _run_in_src(code)
    return tuple(json.loads(out.splitlines()[-1].removeprefix("RESULT ")))


_VERIFY = [
    ["verify", "functoriality", "--method", "ml", "--delta", "0.3", "--trials", "20"],
    ["verify", "sandwich", "--method", "vl", "--k", "2", "--delta", "0.3", "--trials", "20"],
    ["verify", "counterexample", "--method", "sl", "--delta", "1", "--max-points", "4"],
]


_EVERY_KIND = [
    ["--help"],
    ["--version"],
    ["cluster", "--method", "ml", "--delta", "0.3", "{csv}"],
    ["sieve", "--method", "vl", "--k", "2", "{csv}"],
    *_VERIFY,
]


def _command_id(args: list[str]) -> str:
    return " ".join(a for a in args[:2] if a != "{csv}")


@pytest.mark.parametrize("args", _EVERY_KIND, ids=_command_id)
def test_no_command_loads_click(tmp_path, args):
    csv = _cloud_csv(tmp_path / "small.csv", 20)
    status, _, loaded = _fresh_run([a.format(csv=csv) for a in args])
    assert status == 0 and "click" not in loaded


@pytest.mark.parametrize("args", _EVERY_KIND, ids=_command_id)
def test_no_command_loads_dataclasses_or_inspect(tmp_path, args):
    csv = _cloud_csv(tmp_path / "small.csv", 20)
    status, _, loaded = _fresh_run([a.format(csv=csv) for a in args])
    assert status == 0 and {"dataclasses", "inspect"}.isdisjoint(loaded)


_GRAPHS_LOADED = [
    (["sieve", "--method", "sl", "{csv}"], False),
    (["sieve", "--method", "ml", "{csv}"], False),
    (["sieve", "--method", "l", "--k", "2", "{csv}"], False),
    (["cluster", "--method", "sl", "--delta", "0.3", "{csv}"], False),
    (["cluster", "--method", "ml", "--delta", "0.3", "{csv}"], False),
    (["cluster", "--method", "l", "--k", "2", "--delta", "0.3", "{csv}"], False),
    (_VERIFY[0], False),  # functoriality of ml
    (["sieve", "--method", "vl", "--k", "2", "{csv}"], True),
    (["cluster", "--method", "el", "--k", "2", "--delta", "0.3", "{csv}"], True),
    (["export-dot", "--delta", "0.3", "{csv}"], True),
    (_VERIFY[2], True),  # counterexample
]


@pytest.mark.parametrize(
    "args, loaded",
    _GRAPHS_LOADED,
    ids=[" ".join(a for a in args if a != "{csv}") for args, _ in _GRAPHS_LOADED],
)
def test_graphs_loads_only_for_the_commands_that_read_it(tmp_path, args, loaded):
    csv = _cloud_csv(tmp_path / "small.csv", 20)
    status, _, modules = _fresh_run([a.format(csv=csv) for a in args])
    assert status == 0 and ("sievecluster.graphs" in modules) == loaded


def test_commands_leave_importlib_resources_unloaded(tmp_path):
    # without site, which may load importlib.resources for a package of
    # its own, only the command can load it; load_schema still does
    csv = _cloud_csv(tmp_path / "small.csv", 20)
    code = f"""
import contextlib
import io
import json
import os
import sys

sys.path.insert(0, {str(SRC)!r})
from sievecluster.cli import main

seen = []
for args in (
    ["cluster", "--method", "ml", "--delta", "0.3", {csv!r}],
    ["sieve", "--method", "sl", {csv!r}],
    {_VERIFY[0]!r},
):
    with open(os.devnull, "wb") as sink, contextlib.redirect_stdout(io.TextIOWrapper(sink)):
        try:
            main(args, prog_name="sievecluster")
        except SystemExit as exc:
            status = exc.code or 0
    seen.append([status, "importlib.resources" in sys.modules])
from sievecluster.fileio import load_schema

print("RESULT", json.dumps([seen, load_schema("cover")["type"]]))
"""
    out = _run_in_src(code, "-S")
    result = json.loads(out.splitlines()[-1].removeprefix("RESULT "))
    assert result == [[[0, False]] * 3, "object"]


@pytest.mark.parametrize("args", _VERIFY, ids=lambda args: args[1])
def test_verify_checks_leave_the_sieve_builder_unloaded(args):
    status, _, loaded = _fresh_run(args)
    assert status == 0 and "sievecluster.sieves" not in loaded


def test_help_is_usage_for_every_command():
    commands = ["cluster", "sieve", "flagify", "refines", "param-probe", "export-dot", "verify"]
    status, root, _ = _fresh_run(["--help"])
    assert status == 0 and root.startswith("Usage:")
    for args in [*([c] for c in commands), *(a[:2] for a in _VERIFY)]:
        status, text, _ = _fresh_run([*args, "--help"])
        assert status == 0 and text.startswith("Usage: sievecluster " + " ".join(args)), args


def test_dir_lists_every_public_name():
    assert set(sievecluster.__all__) <= set(dir(sievecluster))
    assert "__version__" in dir(sievecluster)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sievecluster.no_such_name
    assert not hasattr(sievecluster, "no_such_name")


def test_name_tuples_are_defined_once():
    from sievecluster import verify

    assert sievecluster.FAMILIES is sievecluster.functors.FAMILIES
    assert sievecluster.functors.FAMILIES is sievecluster._names.FAMILIES
    assert verify.CATEGORIES is sievecluster._names.CATEGORIES


def test_traced_install_leaves_no_unwrapped_binding():
    """bench/tracer.py imports the CLI, then the modules it patches one
    target at a time; a module loaded in between must not keep a name
    bound to a function the tracer wraps after it, or those calls go
    unrecorded."""
    tracer = ROOT / "bench" / "tracer.py"
    code = f"""
import importlib.util
import sys

spec = importlib.util.spec_from_file_location("tracer", {str(tracer)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tracer.Tracer().install()
originals = {{}}
for module, path, _ in tracer.TARGETS:
    if "." not in path:
        wrapped = getattr(sys.modules["sievecluster." + module], path)
        originals[id(wrapped.__wrapped__)] = module + "." + path
stale = sorted(
    name + "." + key + " is the unwrapped " + originals[id(value)]
    for name, module in list(sys.modules.items())
    if name.split(".")[0] == "sievecluster"
    for key, value in vars(module).items()
    if id(value) in originals
)
print("RESULT", stale)
"""
    out = _run_in_src(code)
    assert out.splitlines()[-1] == "RESULT []"
