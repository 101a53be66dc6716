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

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HEAVY = ("numpy", "sievecluster.functors", "sievecluster.sieves", "sievecluster.verify")


def _run_in_src(code: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, timeout=120
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
    from sievecluster.metric import _NUMPY_MIN_POINTS

    below = _cloud_csv(tmp_path / "below.csv", _NUMPY_MIN_POINTS - 1)
    at = _cloud_csv(tmp_path / "at.csv", _NUMPY_MIN_POINTS)
    seen = _numpy_after_each(
        [["cluster", "--method", "sl", "--delta", "0.1", below],
         ["cluster", "--method", "sl", "--delta", "0.1", at]]
    )
    assert seen == [(0, False), (0, True)]


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
