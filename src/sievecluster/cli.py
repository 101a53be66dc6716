"""Command-line surface: one binary, seven subcommands.

cluster      evaluate a flat method on a space, emit cover JSON
sieve        sweep a method over all scales, emit sieve JSON
flagify      complete a cover JSON to its flag cover
refines      decide refinement between two cover JSON files
param-probe  bisect for the scale at which a method merges two points
verify       randomized/exhaustive consistency checks, emit report JSON
export-dot   threshold or closure graph of a space as DOT

Exit codes: 0 success (including expected check outcomes), 1 a check found
violations it should not have (or a sieve sweep broke monotonicity), 2
malformed input or usage. All randomness is seeded; --seed defaults to the
SIEVECLUSTER_SEED environment variable, then 0. JSON output is canonical,
so identical inputs and seeds give byte-identical files.

Each command imports the library functions it calls inside its body, so
building the options, ``--help``, ``--version`` and usage errors load
neither numpy nor the kernels.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import nullcontext
from typing import TYPE_CHECKING

import click

from . import __version__
from ._names import CATEGORIES, FAMILIES
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


class _InputError(click.ClickException):
    exit_code = 2


def _fail_input(message: str) -> None:
    raise _InputError(message)


def _parse_level(value: str | None, flag: str = "--k"):
    if value is None:
        return None
    if value.lower() in ("inf", "infinity"):
        return math.inf
    try:
        return int(value)
    except ValueError:
        _fail_input(f"{flag} must be a positive integer or 'inf', got {value!r}")


def _parse_budget(value: str | None):
    if value is None:
        return None
    if value.lower() in ("inf", "infinity"):
        return math.inf
    try:
        return float(value)
    except ValueError:
        _fail_input(f"--K must be a positive real or 'inf', got {value!r}")


def _space_options(fn):
    fn = click.option(
        "--as-matrix",
        "fmt_matrix",
        is_flag=True,
        help="Force CSV interpretation as a distance matrix.",
    )(fn)
    fn = click.option(
        "--as-points",
        "fmt_points",
        is_flag=True,
        help="Force CSV interpretation as a point cloud.",
    )(fn)
    fn = click.option(
        "--norm",
        type=click.Choice(["euclidean", "manhattan", "chebyshev"]),
        default="euclidean",
        show_default=True,
        help="Norm used to turn a point cloud into distances.",
    )(fn)
    return fn


def _method_options(fn, with_delta=True):
    if with_delta:
        fn = click.option("--delta", type=float, help="Scale parameter.")(fn)
    fn = click.option(
        "--method",
        "family",
        type=click.Choice(list(FAMILIES)),
        required=True,
        help="Clustering family.",
    )(fn)
    fn = click.option("--k", "k_raw", metavar="K", help="Level: positive integer or 'inf'.")(fn)
    fn = click.option(
        "--K",
        "budget_raw",
        metavar="BUDGET",
        help="Total step budget (family 'l' only): positive real or 'inf'.",
    )(fn)
    fn = click.option(
        "--clique-exception",
        is_flag=True,
        help="Family 'el' only: adjoin maximal cliques and re-maximalize.",
    )(fn)
    fn = click.option(
        "--test-space",
        "test_paths",
        multiple=True,
        type=click.Path(exists=False),
        help="Family 'generated' only: test space file (repeatable).",
    )(fn)
    return fn


def _ingest(path: str, fmt_matrix: bool, fmt_points: bool, norm: str) -> FiniteMetricSpace:
    if fmt_matrix and fmt_points:
        _fail_input("--as-matrix and --as-points are mutually exclusive")
    fmt = "matrix" if fmt_matrix else "points" if fmt_points else "auto"
    from .fileio import ingest_space

    try:
        return ingest_space(path, fmt=fmt, norm=norm)
    except SieveclusterError as exc:
        _fail_input(str(exc))


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
    try:
        return MethodSpec(
            family=family,
            delta=delta,
            k=_parse_level(kw["k_raw"]),
            budget=_parse_budget(kw["budget_raw"]),
            test_spaces=tuple(test_spaces),
            clique_exception=kw["clique_exception"],
        )
    except (TypeError, ValueError) as exc:
        _fail_input(str(exc))


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


def _emit_json(obj, output: str | None) -> None:
    from .fileio import canonical_json_bytes

    _write_out(output, (canonical_json_bytes(obj),))


def _read_cover(path: str) -> Cover:
    from .covers import Cover
    from .fileio import read_json

    try:
        data = read_json(path)
    except SieveclusterError as exc:  # the message names the file
        _fail_input(str(exc))
    try:
        return Cover.from_dict(data)
    except (SieveclusterError, KeyError, TypeError, ValueError) as exc:
        _fail_input(f"{path}: {exc}")


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Overlapping clustering methods on finite metric spaces, their scale
    profiles, and a verification harness for their structural guarantees."""


@main.command()
@click.argument("input_path", type=click.Path(exists=False))
@click.option("-o", "--output", type=click.Path(), help="Write JSON here instead of stdout.")
@click.option(
    "--emit-dot",
    "dot_path",
    type=click.Path(),
    help="Also write the graph the clusters came from (threshold graph, "
    "closed for the closure families) as DOT.",
)
@_space_options
def cluster(**kw) -> None:
    """Evaluate a flat method at one scale; write the cover as JSON."""
    from .covers import co_blocking
    from .functors import evaluate_method
    from .graphs import Graph, threshold_graph, write_dot

    x = _ingest(kw["input_path"], kw["fmt_matrix"], kw["fmt_points"], kw["norm"])
    spec = _build_method(kw)
    try:
        cover = evaluate_method(x, spec)
    except SieveclusterError as exc:
        _fail_input(str(exc))
    if kw["dot_path"]:
        if spec.delta is None:
            _fail_input("--emit-dot needs a method with --delta")
        if spec.family in ("bk", "bkstar"):
            # the cover's blocks are the maximal cliques of the closed
            # graph, so their co-blocking relation is that graph
            g = Graph.from_masks(x.labels, co_blocking(cover).adj)
        else:
            g = threshold_graph(x, spec.delta)
        _write_out(kw["dot_path"], (write_dot(g).encode("utf-8"),))
    _emit_json(cover.to_dict(), kw["output"])


cluster = _method_options(cluster)


@main.command()
@click.argument("input_path", type=click.Path(exists=False))
@click.option("-o", "--output", type=click.Path(), help="Write JSON here instead of stdout.")
@_space_options
def sieve(**kw) -> None:
    """Sweep a method over every scale of the input; write the profile as
    JSON. Exit 1 if the sweep violates refinement monotonicity or ends in a
    non-trivial cover (the profile is still written in the latter case)."""
    if kw["family"] == "generated":
        _fail_input("the generated family has no scale parameter to sweep")
    from .fileio import _sieve_json
    from .sieves import build_sieve, check_sieve_axioms

    x = _ingest(kw["input_path"], kw["fmt_matrix"], kw["fmt_points"], kw["norm"])
    spec = _build_method(kw)
    try:
        s = build_sieve(x, spec)
    except MonotonicityViolation as exc:
        click.echo(f"monotonicity violation: {exc}", err=True)
        sys.exit(1)
    except SieveclusterError as exc:
        _fail_input(str(exc))
    _write_out(kw["output"], _sieve_json(s))
    report = check_sieve_axioms(s)
    if not report.is_sieve:
        click.echo(report.summary(), err=True)
        sys.exit(1)


sieve = _method_options(sieve, with_delta=False)


@main.command(name="flagify")
@click.argument("cover_path", type=click.Path(exists=False))
@click.option("-o", "--output", type=click.Path(), help="Write JSON here instead of stdout.")
def flagify_cmd(cover_path: str, output: str | None) -> None:
    """Complete a cover (JSON) to the nearest flag cover."""
    from .covers import flagify

    cover = _read_cover(cover_path)
    try:
        result = flagify(cover)
    except SieveclusterError as exc:
        _fail_input(str(exc))
    _emit_json(result.to_dict(), output)


@main.command(name="refines")
@click.argument("fine_path", type=click.Path(exists=False))
@click.argument("coarse_path", type=click.Path(exists=False))
def refines_cmd(fine_path: str, coarse_path: str) -> None:
    """Print "true" if the first cover refines the second, else "false"."""
    from .covers import refines

    fine = _read_cover(fine_path)
    coarse = _read_cover(coarse_path)
    try:
        result = refines(fine, coarse)
    except SieveclusterError as exc:
        _fail_input(str(exc))
    click.echo("true" if result else "false")


@main.command(name="param-probe")
def param_probe(**kw) -> None:
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
        click.echo(f"trivial: {exc}")
        return
    except (ValueError, SieveclusterError) as exc:
        _fail_input(str(exc))
    click.echo(repr(probe.delta_f))


param_probe = _method_options(param_probe)


@main.group()
def verify() -> None:
    """Randomized and exhaustive consistency checks; reports are JSON."""


def _seed_option(fn):
    return click.option(
        "--seed",
        type=int,
        default=0,
        show_default=True,
        envvar="SIEVECLUSTER_SEED",
        show_envvar=True,
        help="Seed for the deterministic generator.",
    )(fn)


def _finish_report(report: TrialReport, output: str | None, expect_zero: bool) -> None:
    _emit_json(report.to_dict(), output)
    if expect_zero and report.violations:
        click.echo(
            f"{len(report.violations)} unexpected violation(s) in {report.trials} trials",
            err=True,
        )
        sys.exit(1)


@verify.command(name="functoriality")
@click.option("--trials", type=int, default=100, show_default=True)
@click.option(
    "--category",
    type=click.Choice(list(CATEGORIES)),
    default="met",
    show_default=True,
    help="Sample arbitrary non-expansive maps (met) or injective ones (metinj).",
)
@click.option(
    "--expect",
    type=click.Choice(["auto", "zero", "any"]),
    default="auto",
    show_default=True,
    help="Whether violations fail the exit code; auto derives it from the method/category.",
)
@_seed_option
@click.option("-o", "--output", type=click.Path(), help="Write report JSON here.")
def verify_functoriality(**kw) -> None:
    """Check consistency of the method under sampled maps."""
    from .verify import check_functoriality

    spec = _build_method(kw)
    if kw["trials"] < 0:
        _fail_input("--trials must be nonnegative")
    try:
        report = check_functoriality(
            spec, kw["trials"], category=kw["category"], seed=kw["seed"]
        )
    except (ValueError, SieveclusterError) as exc:
        _fail_input(str(exc))
    expect = kw["expect"]
    if expect == "auto":
        expect = (
            "any"
            if kw["category"] == "met" and kw["family"] in _INJECTIVE_ONLY
            else "zero"
        )
    _finish_report(report, kw["output"], expect_zero=expect == "zero")


verify_functoriality = _method_options(verify_functoriality)


@verify.command(name="sandwich")
@click.option("--trials", type=int, default=100, show_default=True)
@_seed_option
@click.option("-o", "--output", type=click.Path(), help="Write report JSON here.")
def verify_sandwich(**kw) -> None:
    """Check the two-sided bracketing at the probed scale (always expected
    to hold; violations exit 1)."""
    from .verify import check_sandwich

    spec = _build_method(kw)
    if kw["trials"] < 0:
        _fail_input("--trials must be nonnegative")
    try:
        report = check_sandwich(spec, kw["trials"], seed=kw["seed"])
    except TrivialFunctor as exc:
        _fail_input(f"sandwich needs a non-trivial method; probe says: {exc}")
    except (ValueError, SieveclusterError) as exc:
        _fail_input(str(exc))
    _finish_report(report, kw["output"], expect_zero=True)


verify_sandwich = _method_options(verify_sandwich)


@verify.command(name="counterexample")
@click.option("--max-points", type=int, default=6, show_default=True)
@click.option("--budget", type=int, default=10**6, show_default=True)
@click.option(
    "--expect",
    type=click.Choice(["auto", "found", "notfound", "any"]),
    default="auto",
    show_default=True,
    help="Polarity of the exit code; auto expects witnesses exactly for the "
    "families that are only consistent under injective maps.",
)
@click.option("-o", "--output", type=click.Path(), help="Write report JSON here.")
def verify_counterexample(**kw) -> None:
    """Search small spaces for consistency violations of the method."""
    from .verify import TrialReport, _search_counterexample

    spec = _build_method(kw)
    if kw["max_points"] < 3:
        _fail_input("--max-points must be at least 3")
    if kw["budget"] < 1:
        _fail_input("--budget must be positive")
    try:
        witness, tried = _search_counterexample(
            spec, max_points=kw["max_points"], budget=kw["budget"]
        )
    except (ValueError, SieveclusterError) as exc:
        _fail_input(str(exc))
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
        click.echo("expected a witness but the search found none", err=True)
        sys.exit(1)
    if expect == "notfound" and found:
        click.echo("expected no witness but the search found one", err=True)
        sys.exit(1)


verify_counterexample = _method_options(verify_counterexample)


@main.command(name="export-dot")
@click.argument("input_path", type=click.Path(exists=False))
@click.option("--delta", type=float, required=True, help="Threshold scale.")
@click.option("--bk", "bk_level", metavar="K", default=None, help="Export the edge-closure graph at this level.")
@click.option(
    "--bkstar",
    "bkstar_level",
    metavar="K",
    default=None,
    help="Export the relaxed edge-closure graph at this level.",
)
@click.option("-o", "--output", type=click.Path(), help="Write DOT here instead of stdout.")
@_space_options
def export_dot(**kw) -> None:
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
    try:
        g = _dot_graph(x, kw["delta"], closure, _parse_level(level, f"--{closure}"))
    except (TypeError, ValueError) as exc:
        _fail_input(str(exc))
    _write_out(kw["output"], (write_dot(g).encode("utf-8"),))


if __name__ == "__main__":
    main()
