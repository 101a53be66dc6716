"""Command-line surface: one binary, seven subcommands.

cluster      evaluate a flat method on a space, emit cover JSON
sieve        sweep a method over all scales, emit sieve JSON
flagify      complete a cover JSON to its flag cover
refines      decide refinement between two cover JSON files
param-probe  bisect for the scale at which a method merges two points
verify       randomized/exhaustive consistency checks, emit report JSON
export-dot   threshold or closure graph of a space as DOT

Exit codes: 0 success (including expected check outcomes), 1 a check found
violations it should not have (or a sweep broke monotonicity), 2
malformed input or usage. All randomness is seeded; --seed defaults to the
SIEVECLUSTER_SEED environment variable, then 0. JSON output is canonical,
so identical inputs and seeds give byte-identical files.

The parser is the standard library's argparse, built anew on each call of
:func:`main` for the one command that its arguments name; the same parser
writes ``--help``. Every command and check is registered with its one-line
help, which is all that the root's help and its usage errors need, and
only the command that runs gets its options. Options are spelled out in
full (no prefixes), an option that takes a value takes the next argument
whatever it looks like (``--delta -inf``), and a usage or input error is
one ``Error: <message>`` line on stderr with exit code 2. Input errors
come from one handler in :func:`main`, which every
:class:`SieveclusterError` reaches: the commands do not catch the
library's, and raise their own. The library refuses a bad argument with
``InvalidArgument``, a SieveclusterError, so no command turns a
``ValueError`` into exit 2; any other exception is a fault of the
program and ends in a traceback. Each command imports the library
functions it calls inside its body, so building the parser, ``--help``,
``--version`` and usage errors load neither numpy nor the kernels, and no
command loads a third-party module of its own.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext
from typing import TYPE_CHECKING

from . import __version__
from ._names import CATEGORIES, FAMILIES, NORMS
from .errors import (
    MonotonicityViolation,
    SieveclusterError,
    TrivialFunctor,
)

if TYPE_CHECKING:
    from .covers import Cover
    from .functors import MethodSpec
    from .graphs import Graph
    from .metric import FiniteMetricSpace
    from .verify import TrialReport

_INJECTIVE_ONLY = ("vl", "el", "bk", "bkstar")


def _fail_input(message: str) -> None:
    """Malformed input or usage that a command found: exit 2, from main."""
    raise SieveclusterError(message)


def _parse_level(value: str | None, flag: str = "--k", number=int):
    """The level (or, with ``number=float``, the budget) an option gives:
    a number, 'inf', or None when the option is absent."""
    if value is None:
        return None
    if value.lower() in ("inf", "infinity"):
        return math.inf
    try:
        return number(value)
    except ValueError:
        kind = "integer" if number is int else "real"
        _fail_input(f"{flag} must be a positive {kind} or 'inf', got {value!r}")


def _ingest(path: str, fmt_matrix: bool, fmt_points: bool, norm: str) -> FiniteMetricSpace:
    if fmt_matrix and fmt_points:
        _fail_input("--as-matrix and --as-points are mutually exclusive")
    fmt = "matrix" if fmt_matrix else "points" if fmt_points else "auto"
    from .fileio import ingest_space

    return ingest_space(path, fmt=fmt, norm=norm)


def _build_method(kw: dict) -> MethodSpec:
    """The method named by a command's method options; commands without a
    --delta option (sieve) build a scale-free method."""
    from .functors import MethodSpec

    family = kw["family"]
    delta = kw.get("delta")
    norm = kw.get("norm", "euclidean")
    test_spaces = [_ingest(p, False, False, norm) for p in kw["test_paths"]]
    if family != "generated" and "delta" in kw and delta is None:
        _fail_input(f"--method {family} requires --delta")
    return MethodSpec(
        family=family,
        delta=delta,
        k=_parse_level(kw["k_raw"]),
        budget=_parse_level(kw["budget_raw"], "--K", float),
        test_spaces=tuple(test_spaces),
        clique_exception=kw["clique_exception"],
    )


def _dot_graph(x: FiniteMetricSpace, delta: float, closure: str | None, k) -> Graph:
    """The threshold graph at delta, closed under the bk or bkstar rule
    at level k when ``closure`` names one."""
    from .graphs import bk_closure, bk_star_closure, threshold_graph

    g = threshold_graph(x, delta)
    if closure == "bk":
        return bk_closure(g, k)
    if closure == "bkstar":
        return bk_star_closure(g, k)
    return g


def _write_out(path: str | None, chunks) -> None:
    """Write byte chunks to the file at path, or to stdout when path is
    None. A destination that cannot be written is a usage error (exit 2),
    not a crash; a reader that closes stdout early ends the output
    quietly, and the command goes on to its exit code."""
    try:
        with open(path, "wb") if path else nullcontext(sys.stdout.buffer) as out:
            for chunk in chunks:
                out.write(chunk)
            out.flush()
    except OSError as exc:
        if not path:
            # what stays buffered goes nowhere, so exit writes no error
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            if isinstance(exc, BrokenPipeError):
                return
        _fail_input(f"cannot write {path or 'stdout'}: {exc.strerror}")


def _print(line: str) -> None:
    _write_out(None, (f"{line}\n".encode("utf-8"),))


def _warn(line: str) -> None:
    print(line, file=sys.stderr)


def _emit_json(obj, output: str | None) -> None:
    from .fileio import canonical_json_bytes

    _write_out(output, (canonical_json_bytes(obj),))


def _read_cover(path: str) -> Cover:
    from .covers import Cover
    from .fileio import read_json

    data = read_json(path)  # its errors name the file
    try:
        return Cover.from_dict(data)
    except SieveclusterError as exc:
        _fail_input(f"{path}: {exc}")


def cluster(kw: dict) -> None:
    """Evaluate a flat method at one scale; write the cover as JSON."""
    from .functors import evaluate_method

    x = _ingest(kw["input_path"], kw["fmt_matrix"], kw["fmt_points"], kw["norm"])
    spec = _build_method(kw)
    cover = evaluate_method(x, spec)
    if kw["dot_path"]:
        if spec.delta is None:
            _fail_input("--emit-dot needs a method with --delta")
        from .covers import co_blocking
        from .graphs import Graph, threshold_graph, write_dot

        if spec.family in ("bk", "bkstar"):
            # the cover's blocks are the maximal cliques of the closed
            # graph, so their co-blocking relation is that graph
            g = Graph.from_masks(x.labels, co_blocking(cover).adj)
        else:
            g = threshold_graph(x, spec.delta)
        _write_out(kw["dot_path"], (write_dot(g).encode("utf-8"),))
    _emit_json(cover.to_dict(), kw["output"])


def sieve(kw: dict) -> None:
    """Sweep a method over every scale of the input; write the profile as JSON.

    Exit 1 if the sweep violates refinement monotonicity or ends in a
    non-trivial cover (the profile is still written in the latter case)."""
    if kw["family"] == "generated":
        _fail_input("the generated family has no scale parameter to sweep")
    from .fileio import _sieve_json
    from .sieves import build_sieve

    x = _ingest(kw["input_path"], kw["fmt_matrix"], kw["fmt_points"], kw["norm"])
    spec = _build_method(kw)
    try:
        s = build_sieve(x, spec)
    except MonotonicityViolation as exc:
        _warn(f"monotonicity violation: {exc}")
        sys.exit(1)
    _write_out(kw["output"], _sieve_json(s))
    if not s.terminal_trivial():  # a built sieve refines by construction
        _warn("persistent cover: terminal cover non-trivial")
        sys.exit(1)


def flagify_cmd(kw: dict) -> None:
    """Complete a cover (JSON) to the nearest flag cover."""
    from .covers import flagify

    cover = _read_cover(kw["cover_path"])
    _emit_json(flagify(cover).to_dict(), kw["output"])


def refines_cmd(kw: dict) -> None:
    """Print "true" if the first cover refines the second, else "false"."""
    from .covers import refines

    fine = _read_cover(kw["fine_path"])
    coarse = _read_cover(kw["coarse_path"])
    _print("true" if refines(fine, coarse) else "false")


def param_probe(kw: dict) -> None:
    """Probe the scale at which a method first merges a two-point space.

    Prints the probed scale; for methods that never merge or never split it
    prints a "trivial" diagnosis instead (still exit 0: triviality is a
    legitimate probe outcome, not an error).
    """
    from .functors import clustering_parameter

    spec = _build_method(kw)
    try:
        probe = clustering_parameter(spec)
    except TrivialFunctor as exc:
        _print(f"trivial: {exc}")
        return
    _print(repr(probe.delta_f))


def _finish_report(report: TrialReport, output: str | None, expect_zero: bool) -> None:
    _emit_json(report.to_dict(), output)
    if expect_zero and report.violations:
        _warn(f"{len(report.violations)} unexpected violation(s) in {report.trials} trials")
        sys.exit(1)


def verify_functoriality(kw: dict) -> None:
    """Check consistency of the method under sampled maps."""
    from .verify import check_functoriality

    spec = _build_method(kw)
    if kw["trials"] < 0:
        _fail_input("--trials must be nonnegative")
    report = check_functoriality(spec, kw["trials"], category=kw["category"], seed=kw["seed"])
    expect = kw["expect"]
    if expect == "auto":
        expect = (
            "any"
            if kw["category"] == "met" and kw["family"] in _INJECTIVE_ONLY
            else "zero"
        )
    _finish_report(report, kw["output"], expect_zero=expect == "zero")


def verify_sandwich(kw: dict) -> None:
    """Check the two-sided bracketing at the probed scale.

    It is always expected to hold; violations exit 1."""
    from .verify import check_sandwich

    spec = _build_method(kw)
    if kw["trials"] < 0:
        _fail_input("--trials must be nonnegative")
    try:
        report = check_sandwich(spec, kw["trials"], seed=kw["seed"])
    except TrivialFunctor as exc:
        _fail_input(f"sandwich needs a non-trivial method; probe says: {exc}")
    _finish_report(report, kw["output"], expect_zero=True)


def verify_counterexample(kw: dict) -> None:
    """Search small spaces for consistency violations of the method."""
    from .verify import TrialReport, _search_counterexample

    spec = _build_method(kw)
    if kw["max_points"] < 3:
        _fail_input("--max-points must be at least 3")
    if kw["budget"] < 1:
        _fail_input("--budget must be positive")
    witness, tried = _search_counterexample(
        spec, max_points=kw["max_points"], budget=kw["budget"]
    )
    report = TrialReport(
        check="counterexample",
        method=spec.to_dict(),
        category="met",
        trials=tried,
        violations=[witness] if witness else [],
        seed=0,
        elapsed=0.0,
        extra={
            "found": witness is not None,
            "max_points": kw["max_points"],
            "budget": kw["budget"],
        },
    )
    _emit_json(report.to_dict(), kw["output"])
    expect = kw["expect"]
    if expect == "auto":
        level = spec.k if spec.k is not None else 1
        expect = (
            "found"
            if kw["family"] in _INJECTIVE_ONLY and 2 <= level < math.inf
            else "notfound"
        )
    found = witness is not None
    if expect == "found" and not found:
        _warn("expected a witness but the search found none")
        sys.exit(1)
    if expect == "notfound" and found:
        _warn("expected no witness but the search found one")
        sys.exit(1)


def export_dot(kw: dict) -> None:
    """Write the threshold graph of a space (optionally after closure) as DOT."""
    from .graphs import write_dot

    if kw["bk_level"] is not None and kw["bkstar_level"] is not None:
        _fail_input("--bk and --bkstar are mutually exclusive")
    x = _ingest(kw["input_path"], kw["fmt_matrix"], kw["fmt_points"], kw["norm"])
    if not kw["delta"] >= 0:
        _fail_input("--delta must be nonnegative")
    closure, level = None, None
    if kw["bk_level"] is not None:
        closure, level = "bk", kw["bk_level"]
    elif kw["bkstar_level"] is not None:
        closure, level = "bkstar", kw["bkstar_level"]
    g = _dot_graph(x, kw["delta"], closure, _parse_level(level, f"--{closure}"))
    _write_out(kw["output"], (write_dot(g).encode("utf-8"),))


class _Formatter(argparse.HelpFormatter):
    def add_usage(self, usage, actions, groups, prefix=None):
        super().add_usage(usage, actions, groups, "Usage: " if prefix is None else prefix)


class _Parser(argparse.ArgumentParser):
    """A parser whose help starts with ``Usage:``, whose only help flag is
    ``--help``, which takes no option prefixes, and whose errors exit 2
    after an ``Error:`` line."""

    def __init__(self, **kw):
        self._takes_value: set[str] = set()
        super().__init__(add_help=False, allow_abbrev=False, formatter_class=_Formatter, **kw)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def add_argument(self, *args, **kw):
        action = super().add_argument(*args, **kw)
        if action.option_strings and action.nargs is None:
            self._takes_value.update(action.option_strings)
        return action

    def parse_known_args(self, args=None, namespace=None):
        # argparse would read a value that starts with '-', such as -inf,
        # as an option; an option and its value joined by '=' cannot be
        args = iter(sys.argv[1:] if args is None else args)
        joined = []
        for arg in args:
            if arg == "--":
                joined += [arg, *args]
            elif arg in self._takes_value:
                value = next(args, None)
                joined.append(arg if value is None else f"{arg}={value}")
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"Try '{self.prog} --help' for help.\n\nError: {message}\n")


def _commands(parser: _Parser):
    return parser.add_subparsers(
        title="commands", metavar="COMMAND", required=True, prog=parser.prog
    )


def _output_option(parser: _Parser, help: str) -> None:
    parser.add_argument("-o", "--output", metavar="PATH", help=help)


def _space_options(parser: _Parser) -> None:
    parser.add_argument(
        "--as-matrix",
        dest="fmt_matrix",
        action="store_true",
        help="Force CSV interpretation as a distance matrix.",
    )
    parser.add_argument(
        "--as-points",
        dest="fmt_points",
        action="store_true",
        help="Force CSV interpretation as a point cloud.",
    )
    parser.add_argument(
        "--norm",
        choices=NORMS,
        default="euclidean",
        help="Norm used to turn a point cloud into distances. [default: %(default)s]",
    )


def _method_options(parser: _Parser, with_delta: bool = True) -> None:
    if with_delta:
        parser.add_argument("--delta", type=float, metavar="FLOAT", help="Scale parameter.")
    parser.add_argument(
        "--method", dest="family", choices=FAMILIES, required=True, help="Clustering family."
    )
    parser.add_argument(
        "--k", dest="k_raw", metavar="K", help="Level: positive integer or 'inf'."
    )
    parser.add_argument(
        "--K",
        dest="budget_raw",
        metavar="BUDGET",
        help="Total step budget (family 'l' only): positive real or 'inf'.",
    )
    parser.add_argument(
        "--clique-exception",
        action="store_true",
        help="Family 'el' only: adjoin maximal cliques and re-maximalize.",
    )
    parser.add_argument(
        "--test-space",
        dest="test_paths",
        action="append",
        default=[],
        metavar="PATH",
        help="Family 'generated' only: test space file (repeatable).",
    )


def _count_option(parser: _Parser, flag: str, default: int) -> None:
    parser.add_argument(
        flag, type=int, default=default, metavar="INTEGER", help="[default: %(default)s]"
    )


def _seed_option(parser: _Parser) -> None:
    parser.add_argument(
        "--seed",
        type=int,
        # a string default is parsed as a given --seed would be
        default=os.environ.get("SIEVECLUSTER_SEED") or 0,
        metavar="INTEGER",
        help="Seed for the deterministic generator. [env var: SIEVECLUSTER_SEED; default: 0]",
    )


def _cluster_options(parser: _Parser) -> None:
    _output_option(parser, "Write JSON here instead of stdout.")
    parser.add_argument(
        "--emit-dot",
        dest="dot_path",
        metavar="PATH",
        help="Also write the graph the clusters came from (threshold graph, "
        "closed for the closure families) as DOT.",
    )
    _space_options(parser)
    _method_options(parser)


def _sieve_options(parser: _Parser) -> None:
    _output_option(parser, "Write JSON here instead of stdout.")
    _space_options(parser)
    _method_options(parser, with_delta=False)


def _flagify_options(parser: _Parser) -> None:
    _output_option(parser, "Write JSON here instead of stdout.")


def _functoriality_options(parser: _Parser) -> None:
    _count_option(parser, "--trials", 100)
    parser.add_argument(
        "--category",
        choices=CATEGORIES,
        default="met",
        help="Sample arbitrary non-expansive maps (met) or injective ones (metinj). "
        "[default: %(default)s]",
    )
    parser.add_argument(
        "--expect",
        choices=("auto", "zero", "any"),
        default="auto",
        help="Whether violations fail the exit code; auto derives it from the "
        "method/category. [default: %(default)s]",
    )
    _seed_option(parser)
    _output_option(parser, "Write report JSON here.")
    _method_options(parser)


def _sandwich_options(parser: _Parser) -> None:
    _count_option(parser, "--trials", 100)
    _seed_option(parser)
    _output_option(parser, "Write report JSON here.")
    _method_options(parser)


def _counterexample_options(parser: _Parser) -> None:
    _count_option(parser, "--max-points", 6)
    _count_option(parser, "--budget", 10**6)
    parser.add_argument(
        "--expect",
        choices=("auto", "found", "notfound", "any"),
        default="auto",
        help="Polarity of the exit code; auto expects witnesses exactly for the "
        "families that are only consistent under injective maps. [default: %(default)s]",
    )
    _output_option(parser, "Write report JSON here.")
    _method_options(parser)


def _export_dot_options(parser: _Parser) -> None:
    parser.add_argument(
        "--delta", type=float, required=True, metavar="FLOAT", help="Threshold scale."
    )
    parser.add_argument(
        "--bk", dest="bk_level", metavar="K", help="Export the edge-closure graph at this level."
    )
    parser.add_argument(
        "--bkstar",
        dest="bkstar_level",
        metavar="K",
        help="Export the relaxed edge-closure graph at this level.",
    )
    _output_option(parser, "Write DOT here instead of stdout.")
    _space_options(parser)


# every command, in the order of the help: its path, the function that runs
# it on the dict of its parsed options, the function that adds its options,
# and its positional arguments. A path of two words is a check of verify.
_COMMANDS = (
    ("cluster", cluster, _cluster_options, "input_path"),
    ("sieve", sieve, _sieve_options, "input_path"),
    ("flagify", flagify_cmd, _flagify_options, "cover_path"),
    ("refines", refines_cmd, None, "fine_path", "coarse_path"),
    ("param-probe", param_probe, _method_options),
    ("verify functoriality", verify_functoriality, _functoriality_options),
    ("verify sandwich", verify_sandwich, _sandwich_options),
    ("verify counterexample", verify_counterexample, _counterexample_options),
    ("export-dot", export_dot, _export_dot_options, "input_path"),
)


def _parser(prog: str, command: str | None = None) -> _Parser:
    """The command line. Every command and check is registered with its
    one-line help, which is all that the root's and verify's help and
    their usage errors show. Arguments are added only to the parser of
    ``command``, a path of ``_COMMANDS`` ("" for none), or to every
    command's when it is None. Each command's parser sets ``run``."""
    root = _Parser(
        prog=prog,
        usage="%(prog)s [OPTIONS] COMMAND [ARGS]...",
        description="Overlapping clustering methods on finite metric spaces, their scale "
        "profiles, and a verification harness for their structural guarantees.",
    )
    root.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s, version {__version__}",
        help="Show the version and exit.",
    )
    groups = {"": _commands(root)}
    for path, run, options, *positionals in _COMMANDS:
        group, _, name = path.rpartition(" ")
        if group not in groups:  # verify
            about = "Randomized and exhaustive consistency checks; reports are JSON."
            parser = groups[""].add_parser(
                group, help=about, description=about, usage="%(prog)s [OPTIONS] COMMAND [ARGS]..."
            )
            groups[group] = _commands(parser)
        doc = run.__doc__ or ""  # python -OO strips docstrings
        parser = groups[group].add_parser(
            name,
            help=doc.split("\n")[0],
            description=doc,
            usage=" ".join(["%(prog)s [OPTIONS]", *(p.upper() for p in positionals)]),
        )
        parser.set_defaults(run=run)
        if command is None or command == path:
            for positional in positionals:
                parser.add_argument(positional, metavar=positional.upper())
            if options:
                options(parser)
    return root


def _command_path(args: list[str]) -> str:
    """The path in ``_COMMANDS`` of the command that ``args`` run: the
    first command name among them, then for verify the first check name
    after it; "" when they name none. Neither the root nor verify has an
    option that takes a value, so argparse reads the command from their
    first positional argument: that is this name, or no command name, and
    then parsing fails before any command's options are read."""
    path = ""
    for word in args:
        longer = f"{path} {word}" if path else word
        if any(p == longer or p.startswith(f"{longer} ") for p, *_ in _COMMANDS):
            path = longer
    return path


def _prog_name() -> str:
    """``python -m sievecluster.cli`` when run as a module, else the name of
    the script that was run."""
    spec = getattr(sys.modules["__main__"], "__spec__", None)
    return f"python -m {spec.name}" if spec else os.path.basename(sys.argv[0])


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run the command in ``args`` (default: ``sys.argv[1:]``). Always ends
    in SystemExit with the command's exit code; a SieveclusterError out of
    the command is its ``Error:`` line and exit 2."""
    if args is None:
        args = sys.argv[1:]
    kw = vars(_parser(prog_name or _prog_name(), _command_path(args)).parse_args(args))
    try:
        kw.pop("run")(kw)
    except SieveclusterError as exc:
        _warn(f"Error: {exc}")
        sys.exit(2)
    sys.exit(0)


# bench/tracer.py runs a command through ``main.main``, the name click's
# command group gave its entry point
main.main = main

if __name__ == "__main__":
    main()
