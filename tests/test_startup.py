"""Start-up cost: what importing the package and the CLI loads.

The package resolves its public names on first use, and each CLI command
imports the library functions it calls, so ``--help``, ``--version`` and
usage errors run without numpy or the kernels. Import order only shows in
a fresh interpreter, so those checks run in a subprocess started in
``src/``.
"""

import json
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
    assert loaded == ["numpy", "sievecluster.functors"]


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
