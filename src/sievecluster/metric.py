"""Finite metric spaces, non-expansive maps, and metric constructions.

Distances live in square numpy matrices. Zero distances between distinct
points are allowed throughout (the axioms checked are those of a
pseudometric plus symmetry). Points are addressed by string labels; every
space stores its labels sorted lexicographically, and the matrix rows are
permuted to match, so equal spaces compare equal regardless of input order.

Numeric policy: axiom checks use a relative tolerance scaled by the largest
matrix entry; after validation the matrix is exactly symmetric with an
exactly zero diagonal. Threshold comparisons elsewhere in the package are
exact and inclusive.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    AsymmetricMatrix,
    DuplicateLabel,
    NegativeDistance,
    NonzeroDiagonal,
    TriangleViolation,
)

REL_TOL = 1e-9


def _canonical_labels(labels: Iterable[str]) -> tuple[str, ...]:
    out = tuple(str(x) for x in labels)
    if len(set(out)) != len(out):
        seen = set()
        for x in out:
            if x in seen:
                raise DuplicateLabel(f"label {x!r} appears more than once")
            seen.add(x)
    return out


class FiniteMetricSpace:
    """A finite (pseudo)metric space: sorted labels plus a distance matrix.

    The constructor canonicalizes label order but does not re-check the
    metric axioms; use :func:`validate_metric` when the matrix comes from
    outside the library.
    """

    __slots__ = ("labels", "dist", "_index")

    def __init__(self, labels: Iterable[str], dist: np.ndarray):
        labels = _canonical_labels(labels)
        matrix = np.asarray(dist, dtype=np.float64)
        if matrix.shape != (len(labels), len(labels)):
            raise ValueError(
                f"distance matrix shape {matrix.shape} does not match "
                f"{len(labels)} labels"
            )
        if len(labels) == 0:
            raise ValueError("a metric space needs at least one point")
        order = sorted(range(len(labels)), key=lambda i: labels[i])
        if order != list(range(len(labels))):
            labels = tuple(labels[i] for i in order)
            matrix = matrix[np.ix_(order, order)]
        matrix = np.array(matrix, dtype=np.float64)
        matrix.setflags(write=False)
        self.labels = labels
        self.dist = matrix
        self._index = {lab: i for i, lab in enumerate(labels)}

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self._index[label]

    def distance(self, a: str, b: str) -> float:
        return float(self.dist[self._index[a], self._index[b]])

    def diameter(self) -> float:
        return float(self.dist.max())

    def pairwise_distances(self) -> list[float]:
        """Sorted distinct off-diagonal distances."""
        n = self.n
        iu = np.triu_indices(n, k=1)
        return sorted(set(float(v) for v in self.dist[iu]))

    def restrict(self, labels: Iterable[str]) -> "FiniteMetricSpace":
        keep = sorted(set(labels))
        missing = [x for x in keep if x not in self._index]
        if missing:
            raise KeyError(f"labels not in space: {missing}")
        idx = [self._index[x] for x in keep]
        return FiniteMetricSpace(keep, self.dist[np.ix_(idx, idx)])

    def to_dict(self) -> dict:
        """JSON form: {"points": [...], "distances": [[...], ...]}."""
        return {
            "points": list(self.labels),
            "distances": [[float(v) for v in row] for row in self.dist],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteMetricSpace":
        if "points" not in data or "distances" not in data:
            raise ValueError("space JSON needs 'points' and 'distances'")
        return validate_metric(data["points"], data["distances"])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteMetricSpace):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.dist, other.dist)

    def __hash__(self):
        return hash((self.labels, self.dist.tobytes()))

    def __repr__(self) -> str:
        return f"FiniteMetricSpace({self.n} points, diameter {self.diameter():g})"


def _min_plus(out: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """Relax ``out`` in place by the min-plus product of ``left`` and ``right``.

    For each pivot k in turn, ``out = min(out, left[:, k] + right[k, :])``.
    Each sum is formed in full in one scratch buffer before ``out`` is
    updated, and entries may be ``inf``. ``out`` may alias both factors:
    that is Floyd-Warshall, which ends at the all-pairs shortest paths when
    the diagonal is zero and no entry is negative.
    """
    buf = np.empty_like(out)
    for k in range(left.shape[1]):
        np.add(left[:, k, None], right[None, k, :], out=buf)
        np.minimum(out, buf, out=out)


# entries of one row tile of the triangle check: its two work arrays of
# 512 KB each stay in cache while every pivot passes over them. Point
# distances are computed in row blocks of the same number of differences.
_TILE_ENTRIES = 1 << 16


def _check_triangle(labels: tuple[str, ...], d: np.ndarray, tol: float) -> None:
    """Raise TriangleViolation for the first pair (i, j) in row-major order
    whose distance exceeds the shortest two-step path by more than tol.

    The min-plus square is formed one tile of rows at a time, and only on
    and above the diagonal. d is exactly symmetric, and so is its square,
    so the first bad pair of the whole matrix lies above the diagonal: a
    bad pair below it is mirrored by one in an earlier row.
    """
    n = len(d)
    step = _TILE_ENTRIES // n or 1
    if step >= n:  # one tile, the whole matrix: no slicing on small inputs
        tiles = [(0, d, d, d)]
    else:
        tiles = [
            (r0, d[r0 : r0 + step, r0:], d[r0 : r0 + step], d[:, r0:])
            for r0 in range(0, n, step)
        ]
    for r0, tile, rows, cols in tiles:
        best = tile.copy()
        _min_plus(best, rows, cols)
        bad = tile > best + tol
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            k = int(np.argmin(d[r0 + i] + d[:, r0 + j]))
            raise TriangleViolation(
                (labels[r0 + i], labels[k], labels[r0 + j]),
                float(d[r0 + i, r0 + j] - best[i, j]),
            )


def _checked_matrix(
    labels: Iterable[str], matrix, rel_tol: float
) -> tuple[tuple[str, ...], np.ndarray, float]:
    """Input checks shared by validate_metric and metric_closure.

    Returns the canonical labels, the matrix made exactly symmetric with
    tiny negatives clamped and an exactly zero diagonal, and the absolute
    tolerance (``rel_tol`` scaled by the largest entry).
    """
    labels = _canonical_labels(labels)
    d = np.asarray(matrix, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {d.shape}")
    if d.shape[0] != len(labels):
        raise ValueError(
            f"matrix is {d.shape[0]}x{d.shape[0]} but there are {len(labels)} labels"
        )
    if len(labels) == 0:
        raise ValueError("a metric space needs at least one point")
    if not np.isfinite(d).all():
        raise ValueError("distance matrix contains non-finite entries")
    scale = float(np.abs(d).max())
    tol = rel_tol * scale
    asym = float(np.abs(d - d.T).max())
    if asym > tol:
        raise AsymmetricMatrix(f"matrix differs from transpose by {asym:.3g}")
    d = (d + d.T) / 2.0
    if float(d.min()) < -tol:
        i, j = map(int, np.argwhere(d < -tol)[0])
        raise NegativeDistance(
            f"d({labels[i]}, {labels[j]}) = {d[i, j]:.6g} is negative"
        )
    d = np.maximum(d, 0.0)
    diag = np.abs(np.diagonal(d))
    if float(diag.max()) > tol:
        i = int(diag.argmax())
        raise NonzeroDiagonal(f"d({labels[i]}, {labels[i]}) = {d[i, i]:.6g} != 0")
    d = d.copy()
    np.fill_diagonal(d, 0.0)
    return labels, d, tol


def validate_metric(
    labels: Iterable[str],
    matrix,
    *,
    rel_tol: float = REL_TOL,
    check_triangle: bool = True,
) -> FiniteMetricSpace:
    """Check the metric axioms and build a canonical space.

    Tolerance is ``rel_tol`` scaled by the largest entry. Asymmetry beyond
    tolerance raises AsymmetricMatrix; within tolerance the matrix is
    symmetrized exactly (averaged with its transpose). Entries below zero
    beyond tolerance raise NegativeDistance; tiny negatives are clamped to
    zero. Diagonal entries away from zero raise NonzeroDiagonal.

    The triangle check is exact at every size: it compares each distance
    with the shortest two-step path, a min-plus product that is cubic in
    the number of points (about 1.6 s at 1,200 points and 7 s at 2,000 on
    a 2-vCPU Xeon VM). It runs in row tiles, so its work arrays stay small;
    the checks before it hold at most two n x n arrays beside the input,
    and the space keeps one. ``cluster`` on a 2,000-point matrix CSV thus
    takes about 10.5 s and peaks at 123 MB RSS. A failure
    raises TriangleViolation naming the first offending pair in row-major
    order, the cheapest intermediate point and the excess.
    ``check_triangle=False`` skips it.
    """
    labels, d, tol = _checked_matrix(labels, matrix, rel_tol)
    if check_triangle:
        _check_triangle(labels, d, tol)
    return FiniteMetricSpace(labels, d)


# each norm maps the differences of a block of rows from every point,
# shape (rows, n, dim), to the distances of those rows, shape (rows, n)
_POINT_NORMS = {
    "euclidean": lambda diff: np.sqrt((diff * diff).sum(axis=2)),
    "manhattan": lambda diff: np.abs(diff).sum(axis=2),
    "chebyshev": lambda diff: np.abs(diff).max(axis=2),
}


def space_from_points(
    points, metric: str = "euclidean", labels: Iterable[str] | None = None
) -> FiniteMetricSpace:
    """Build a space from coordinate rows under a named norm.

    Supported metrics: euclidean, manhattan, chebyshev. The triangle
    inequality holds by construction, so no cubic re-check is run.

    The matrix is filled one block of rows at a time. A block holds about
    ``_TILE_ENTRIES`` coordinate differences (at least one row of them),
    so beside the n x n result and the space's copy of it only one block
    is held.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("expected a non-empty 2d array of coordinates")
    norm = _POINT_NORMS.get(metric)
    if norm is None:
        raise ValueError(f"unknown point metric {metric!r}")
    n, dim = pts.shape
    step = _TILE_ENTRIES // max(n * dim, 1) or 1
    d = np.empty((n, n))
    for r0 in range(0, n, step):
        d[r0 : r0 + step] = norm(pts[r0 : r0 + step, None, :] - pts[None, :, :])
    # average with the transpose in place, one block of rows on and above
    # the diagonal at a time: what is read there has not been written yet.
    # An entry and its mirror are computed alike, so this changes only a
    # distance above half the largest float, which overflows to inf.
    for r0 in range(0, n, step):
        rows = slice(r0, r0 + step)
        mean = (d[rows, r0:] + d[r0:, rows].T) / 2.0
        d[rows, r0:] = mean
        d[r0:, rows] = mean.T
    np.fill_diagonal(d, 0.0)
    if labels is None:
        width = len(str(n - 1))
        labels = [f"p{i:0{width}d}" for i in range(n)]
    return FiniteMetricSpace(labels, d)


def path_space(k: int, delta: float) -> FiniteMetricSpace:
    """The (k+1)-point path at step delta: d(i, j) = delta * |i - j|."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("path space needs an integer k >= 1")
    if not 0 <= delta < math.inf:
        raise ValueError(f"path space step must be finite and nonnegative, got {delta!r}")
    width = len(str(k))
    labels = [f"{i:0{width}d}" for i in range(k + 1)]
    idx = np.arange(k + 1, dtype=np.float64)
    d = delta * np.abs(idx[:, None] - idx[None, :])
    return FiniteMetricSpace(labels, d)


def metric_closure(
    labels: Iterable[str], matrix, *, rel_tol: float = REL_TOL
) -> FiniteMetricSpace:
    """Shortest-path repair of a symmetric nonnegative dissimilarity matrix.

    Runs Floyd-Warshall, replacing every entry by the cheapest path total,
    which is the largest metric dominated by the input. Symmetry, zero
    diagonal and nonnegativity are required of the input (same errors as
    validate_metric); the triangle inequality is established by the closure
    itself.
    """
    labels, d, _ = _checked_matrix(labels, matrix, rel_tol)
    _min_plus(d, d, d)
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return FiniteMetricSpace(labels, d)


class MetricMap:
    """A labeled-point assignment between two spaces.

    The assignment must be total on the source labels and land in the
    target labels; nothing else is assumed, so a MetricMap may or may not
    be non-expansive. Predicates below answer that.
    """

    __slots__ = ("source", "target", "assignment")

    def __init__(
        self,
        source: FiniteMetricSpace,
        target: FiniteMetricSpace,
        assignment: Mapping[str, str],
    ):
        missing = [x for x in source.labels if x not in assignment]
        if missing:
            raise ValueError(f"assignment missing source labels: {missing}")
        bad = sorted(
            {v for k, v in assignment.items() if k in source._index}
            - set(target.labels)
        )
        if bad:
            raise ValueError(f"assignment values outside target: {bad}")
        self.source = source
        self.target = target
        self.assignment = {x: assignment[x] for x in source.labels}

    @classmethod
    def identity(cls, space: FiniteMetricSpace) -> "MetricMap":
        return cls(space, space, {x: x for x in space.labels})

    def __call__(self, label: str) -> str:
        return self.assignment[label]

    def image(self) -> set[str]:
        return set(self.assignment.values())

    def compose(self, other: "MetricMap") -> "MetricMap":
        """self after other (other.target must be self.source)."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition endpoints do not match")
        return MetricMap(
            other.source,
            self.target,
            {x: self.assignment[other.assignment[x]] for x in other.source.labels},
        )

    def is_injective(self) -> bool:
        return len(set(self.assignment.values())) == len(self.source.labels)

    def pullback_matrix(self) -> np.ndarray:
        idx = [self.target.index(self.assignment[x]) for x in self.source.labels]
        return self.target.dist[np.ix_(idx, idx)]

    def pullback_metric(self) -> FiniteMetricSpace:
        """Source labels carrying the target's distances between images.

        Always a pseudometric; zero distance between distinct points occurs
        exactly where the map collapses them.
        """
        return FiniteMetricSpace(self.source.labels, self.pullback_matrix())

    def is_nonexpansive(self, rel_tol: float = REL_TOL) -> bool:
        scale = max(float(self.source.dist.max()), float(self.target.dist.max()))
        tol = rel_tol * scale
        return bool((self.pullback_matrix() <= self.source.dist + tol).all())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.assignment == other.assignment
        )

    def __repr__(self) -> str:
        return f"MetricMap({self.source.n} -> {self.target.n} points)"


def _nonexpansive_assignments(
    source: FiniteMetricSpace,
    target: FiniteMetricSpace,
    tol: float,
    injective: bool = False,
):
    """Every assignment of source points to target points that stretches
    no distance by more than ``tol``, as tuples of target indices (one per
    source index) in lexicographic order.

    Depth-first with pairwise pruning: a partial assignment dies as soon
    as two placed points sit farther apart in the target than in the
    source. With ``injective`` no target point is used twice.
    """
    bound = [[v + tol for v in row] for row in source.dist.tolist()]
    tgt = target.dist.tolist()
    m, n = len(bound), len(tgt)
    chosen = [0] * m
    start = [0] * (m + 1)  # next candidate to try at each depth
    i = 0
    while i >= 0:
        if i == m:
            yield tuple(chosen)
            i -= 1
            continue
        row = bound[i]
        cand = start[i]
        while cand < n:
            if not (injective and cand in chosen[:i]):
                dist = tgt[cand]
                for j in range(i):
                    if dist[chosen[j]] > row[j]:
                        break
                else:
                    break
            cand += 1
        if cand == n:
            i -= 1
            continue
        chosen[i] = cand
        start[i] = cand + 1
        i += 1
        start[i] = 0
