"""The benchmark's workloads: fixed command lists on seeded inputs.

Each builder writes its inputs under a work directory and returns the
commands of one pass, each with the check its output must pass. Every
command is expected to exit 0. Sizes keep one pass of each workload at
3-5 seconds on a 2-core machine, so a run holds about ten passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs


@dataclass(frozen=True)
class Command:
    name: str
    args: list[str]
    check: Callable[[dict], list[str]]


def _write_cloud(work: Path, tag: int, points):
    names = inputs.labels("q", len(points))
    path = work / f"cloud{tag}_{len(points)}.csv"
    inputs.write_points_csv(path, names, points)
    return str(path), names, inputs.euclidean(points)


def _cloud(work: Path, seed: int, tag: int, n: int):
    """A uniform point cloud in the unit square, as a labeled CSV."""
    return _write_cloud(work, tag, inputs.uniform_points(seed, tag, n))


def _grid(work: Path, seed: int, tag: int, shape: tuple[int, int], block: int = 0):
    """A jittered lattice (see inputs.grid_points), as a labeled CSV."""
    return _write_cloud(work, tag, inputs.grid_points(seed, tag, shape, block))


def _matrix(work: Path, seed: int, tag: int, shape: tuple[int, int, int]):
    """Distances of a jittered 3-D lattice, as a labeled matrix CSV; up to
    600 points the program checks every triangle."""
    points = inputs.grid_points(seed, tag, shape)
    names = inputs.labels("m", len(points))
    dist = inputs.euclidean(points)
    path = work / f"matrix{tag}_{len(points)}.csv"
    inputs.write_matrix_csv(path, names, dist)
    return str(path), names, dist


def sweep(seed: int, work: Path) -> list[Command]:
    """``sieve`` over every candidate scale: sieves, functors and the
    clique and cut kernels run once per distinct distance."""
    out = []
    path, names, dist = _cloud(work, seed, 1, 26)
    out.append(Command("sieve-ml-26", ["sieve", "--method", "ml", path],
                       lambda doc: checks.check_ml_sieve(names, dist, doc)))
    path2, names2, dist2 = _cloud(work, seed, 2, 70)
    out.append(Command("sieve-sl-70", ["sieve", "--method", "sl", path2],
                       lambda doc: checks.check_sl_sieve(names2, dist2, doc)))
    for tag, n, family, k in ((3, 28, "vl", "2"), (4, 20, "el", "3"), (5, 14, "vl", "3")):
        p, nm, _ = _cloud(work, seed, tag, n)
        out.append(Command(f"sieve-{family}{k}-{n}", ["sieve", "--method", family, "--k", k, p],
                           lambda doc, nm=nm: checks.check_sieve_shape(nm, doc)))
    return out


def flat(seed: int, work: Path) -> list[Command]:
    """One ``cluster`` evaluation per command on 343-900 points: ingest,
    metric validation and the big-n kernels; no sieve.

    The inputs are jittered lattices with thresholds between distance
    shells, so every seed gives the same graphs: on uniform clouds the
    clique, cut and closure searches swung by 10-40% between seeds. The
    2-D thresholds (about 1.7) join each point to its 8 nearest lattice
    neighbours; the matrix threshold (about 1.2) to its 6."""
    out = []
    path, names, dist = _grid(work, seed, 11, (30, 30))
    delta = inputs.gap_delta(dist, 1.7)
    for family, check in (("sl", checks.check_sl_cover), ("ml", checks.check_ml_cover)):
        out.append(Command(f"cluster-{family}-{len(names)}",
                           ["cluster", "--method", family, "--delta", repr(delta), path],
                           lambda doc, check=check: check(names, dist, delta, doc)))
    mpath, mnames, mdist = _matrix(work, seed, 12, (7, 7, 7))
    mdelta = inputs.gap_delta(mdist, 1.2)
    out.append(Command(f"cluster-ml-matrix-{len(mnames)}",
                       ["cluster", "--method", "ml", "--delta", repr(mdelta), mpath],
                       lambda doc: checks.check_ml_cover(mnames, mdist, mdelta, doc)))
    # the cut searches run on separated 4x4 and 8x8 blocks: on one big
    # lattice their cost grows far faster than the point count
    for family, (p, nm, d), partition in (
        ("vl", _grid(work, seed, 13, (20, 20), block=4), False),
        ("el", _grid(work, seed, 14, (24, 24), block=8), True),
        ("bkstar", _grid(work, seed, 15, (30, 20)), False),
    ):
        out.append(Command(
            f"cluster-{family}3-{len(nm)}",
            ["cluster", "--method", family, "--k", "3",
             "--delta", repr(inputs.gap_delta(d, 1.7)), p],
            lambda doc, nm=nm, partition=partition: checks.check_cover(nm, doc, partition),
        ))
    return out


def harness(seed: int, work: Path) -> list[Command]:
    """The verification harness: many flat evaluations on 3-8 point
    spaces, where per-call overhead outweighs asymptotics."""
    trials = ["--trials", "600", "--seed", str(seed)]
    out = [
        Command("functoriality-ml",
                ["verify", "functoriality", "--method", "ml", "--delta", "0.3", *trials],
                lambda doc: checks.check_report(doc, "functoriality")),
        Command("functoriality-vl3-metinj",
                ["verify", "functoriality", "--method", "vl", "--k", "3", "--delta", "0.3",
                 "--category", "metinj", *trials],
                lambda doc: checks.check_report(doc, "functoriality")),
        Command("functoriality-l2",
                ["verify", "functoriality", "--method", "l", "--k", "2", "--K", "1.5",
                 "--delta", "0.3", *trials],
                lambda doc: checks.check_report(doc, "functoriality")),
        Command("sandwich-vl2",
                ["verify", "sandwich", "--method", "vl", "--k", "2", "--delta", "0.3", *trials],
                lambda doc: checks.check_report(doc, "sandwich")),
    ]
    # exhaustive over 3-5 points for the scale families, an early witness
    # for the injective-only ones; 6 points would take 2-3 s a command and
    # leave too few passes in a run for a steady median
    for family, level, found in (
        ("ml", [], False), ("sl", [], False), ("vl", ["--k", "2"], True), ("el", ["--k", "2"], True),
    ):
        out.append(Command(
            f"counterexample-{family}{''.join(level[1:])}",
            ["verify", "counterexample", "--method", family, *level, "--delta", "1.0",
             "--max-points", "5"],
            lambda doc, found=found: checks.check_report(doc, "counterexample", found),
        ))
    return out


WORKLOADS = {"sweep": sweep, "flat": flat, "harness": harness}
