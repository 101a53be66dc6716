"""Finite metric spaces, non-expansive maps, and metric constructions.

A space keeps its distances in one row-major stdlib ``array('d')``, eight
bytes an entry. Zero distances between distinct points are allowed
throughout (the axioms checked are those of a pseudometric plus symmetry).
Points are addressed by string labels; every space stores its labels sorted
lexicographically, and the rows and columns are permuted to match, so equal
spaces compare equal regardless of input order. Every stored zero is +0.0.

Dense kernels pick their path by point count. Below ``_NUMPY_MIN_POINTS``
they run plain Python loops over the buffer, so small inputs never import
numpy; at or above it they import numpy and run on a zero-copy view of the
same buffer. The two paths give the same bytes, and the same error type and
message, for every input.

Numeric policy: axiom checks use a relative tolerance scaled by the largest
matrix entry; after validation the matrix is exactly symmetric with an
exactly zero diagonal. Threshold comparisons elsewhere in the package are
exact and inclusive.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from functools import reduce
from itertools import chain, repeat
from operator import add, le
from typing import Iterable, Mapping

from . import _bitops
from .errors import (
    AsymmetricMatrix,
    DuplicateLabel,
    NegativeDistance,
    NonzeroDiagonal,
    TriangleViolation,
)

REL_TOL = 1e-9

# Dense kernels on fewer points run Python loops, on more numpy, whose
# import adds about 130 ms and 13 MB to a command. On a 2-vCPU Xeon VM the
# loops cost less than that up to about 118 points for the cubic closure
# (96 ms at 100 points, against 3 ms in numpy) and 150 for the cubic
# triangle check (72 ms at 128, against 5 ms), and far beyond for the
# quadratic kernels (point distances: 18 ms at 128, against 1.3 ms).
_NUMPY_MIN_POINTS = 128

_PLUS_ZERO = (0.0).__add__  # 0.0 + v turns -0.0 into +0.0 and keeps every other v
_BINARY = bytes.maketrans(b"\x00\x01", b"01")


def _numpy(n: int):
    """numpy when a dense kernel on n points should run on it, else None."""
    if n < _NUMPY_MIN_POINTS:
        return None
    import numpy

    return numpy


def _zeros(n: int) -> array:
    """A row-major n x n buffer of zeros."""
    return array("d", [0.0]) * (n * n)


def _view(np, flat: array, n: int):
    """A zero-copy (n, n) numpy view of a row-major buffer."""
    return np.frombuffer(flat, dtype=np.float64).reshape(n, n)


def _rows_of(flat: array, n: int) -> list[list[float]]:
    return [flat[i * n : (i + 1) * n].tolist() for i in range(n)]


def _buffer(matrix, n: int) -> array | None:
    """A fresh row-major copy of ``matrix`` when it has fewer than
    ``_NUMPY_MIN_POINTS`` rows and is n >= 1 rows (lists, tuples or float
    arrays) of n real numbers; None otherwise, and the caller's numpy path
    then converts it or raises the error that names what is wrong."""
    if not 0 < n < _NUMPY_MIN_POINTS:
        return None
    rows = matrix.tolist() if hasattr(matrix, "tolist") else matrix
    if type(rows) not in (list, tuple) or len(rows) != n:
        return None
    flat = array("d")
    for row in rows:
        if type(row) not in (list, tuple, array) or len(row) != n:
            return None
        try:
            flat.extend(row)
        except (TypeError, ValueError, OverflowError):
            return None
    return flat


def _permute(np, d, order: list[int]) -> None:
    """Permute the rows and the columns of the square array d in place:
    entry (i, j) becomes the old entry (order[i], order[j]). Only one row
    is held beside d."""
    idx = np.array(order, dtype=np.intp)
    for row in d:
        row[:] = row[idx]
    for start, first in enumerate(order):
        if first == start or first < 0:
            continue
        saved = d[start].copy()
        i = start
        while order[i] != start:
            j = order[i]
            d[i] = d[j]
            order[i] = -1
            i = j
        d[i] = saved
        order[i] = -1


def _mean(a: float, b: float) -> float:
    """(a + b) / 2, or a / 2 + b / 2 where the sum overflows: never inf for finite a, b."""
    s = a + b
    return s / 2.0 if abs(s) != math.inf else a / 2.0 + b / 2.0


def _mean_into(np, out, a, b) -> None:
    """_mean of the arrays a and b, elementwise, into out, which overlaps neither."""
    with np.errstate(over="ignore"):
        np.add(a, b, out=out)
    out /= 2.0
    if out.max() == math.inf:
        big = np.isinf(out)
        out[big] = a[big] / 2.0 + b[big] / 2.0


def _symmetrize(np, d) -> None:
    """Average the square array d with its transpose in place, one block of
    rows on and above the diagonal at a time: what is read there has not
    been written yet."""
    n = len(d)
    step = _TILE_ENTRIES // n or 1
    for r0 in range(0, n, step):
        rows = slice(r0, r0 + step)
        upper, lower = d[rows, r0:], d[r0:, rows].T
        mean = np.empty(upper.shape)
        _mean_into(np, mean, upper, lower)
        d[rows, r0:] = mean
        d[r0:, rows] = mean.T


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

    __slots__ = ("labels", "_flat", "_dist", "_index", "_sorted_rows")

    def __init__(self, labels: Iterable[str], dist):
        labels = _canonical_labels(labels)
        n = len(labels)
        flat = _buffer(dist, n)
        if flat is None:
            import numpy as np

            matrix = np.asarray(dist, dtype=np.float64)
            if matrix.shape != (n, n):
                raise ValueError(
                    f"distance matrix shape {matrix.shape} does not match {n} labels"
                )
            if n == 0:
                raise ValueError("a metric space needs at least one point")
            flat = _zeros(n)
            _view(np, flat, n)[...] = matrix
        self._adopt(labels, flat)

    @classmethod
    def _of(cls, labels: Iterable[str], flat: array) -> "FiniteMetricSpace":
        """The space on ``labels`` (any order) that takes over ``flat``, a
        fresh row-major buffer of their distances."""
        space = cls.__new__(cls)
        space._adopt(_canonical_labels(labels), flat)
        return space

    def _adopt(self, labels: tuple[str, ...], flat: array) -> None:
        """Sort the labels, permute the buffer to match (in place on the
        numpy path) and make every zero +0.0."""
        n = len(labels)
        if len(flat) != n * n:
            m = math.isqrt(len(flat))
            raise ValueError(f"distance matrix shape {(m, m)} does not match {n} labels")
        order = sorted(range(n), key=labels.__getitem__)
        np = _numpy(n)
        if np is None:
            if order != list(range(n)):
                flat = array("d", [flat[i * n + j] for i in order for j in order])
            flat = array("d", map(_PLUS_ZERO, flat))
        else:
            d = _view(np, flat, n)
            if order != list(range(n)):
                _permute(np, d, list(order))
            np.add(d, 0.0, out=d)
        self.labels = tuple(labels[i] for i in order)
        self._flat = flat
        self._dist = None
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._sorted_rows = None

    @property
    def dist(self):
        """The distances as a read-only (n, n) float64 numpy array: a
        zero-copy view of the space's buffer, made (and numpy imported)
        the first time it is read."""
        if self._dist is None:
            import numpy as np

            view = _view(np, self._flat, self.n)
            view.setflags(write=False)
            self._dist = view
        return self._dist

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self._index[label]

    def distance(self, a: str, b: str) -> float:
        return self._flat[self._index[a] * self.n + self._index[b]]

    def diameter(self) -> float:
        return max(self._flat)

    def _adjacency(self, bound: float) -> list[int]:
        """Adjacency masks of the pairs at distance <= bound (no self-bits).

        Below ``_NUMPY_MIN_POINTS`` points, the second call sorts each row
        once and keeps the masks of its prefixes; it and every later call
        (a sieve asks at each scale it visits) is then one bisection a row.
        NaN, which sorts nowhere, always takes the direct comparison.
        """
        table = self._sorted_rows
        if table is None:
            self._sorted_rows = ()  # asked once
        elif not table and self.n < _NUMPY_MIN_POINTS and not any(map(math.isnan, self._flat)):
            table = self._sorted_rows = _sorted_rows(self._flat, self.n)
        if not table or math.isnan(bound):
            return _adjacency_at_most(self._flat, self.n, bound)
        return [masks[bisect_right(values, bound)] for values, masks in table]

    def _rows(self) -> list[list[float]]:
        """The distances as n lists of n floats."""
        return _rows_of(self._flat, self.n)

    def pairwise_distances(self) -> list[float]:
        """Sorted distinct off-diagonal distances."""
        flat, n = self._flat, self.n
        return sorted({v for i in range(n) for v in flat[i * n + i + 1 : (i + 1) * n]})

    def restrict(self, labels: Iterable[str]) -> "FiniteMetricSpace":
        keep = sorted(set(labels))
        missing = [x for x in keep if x not in self._index]
        if missing:
            raise KeyError(f"labels not in space: {missing}")
        idx = [self._index[x] for x in keep]
        flat, n = self._flat, self.n
        return FiniteMetricSpace._of(keep, array("d", [flat[i * n + j] for i in idx for j in idx]))

    def to_dict(self) -> dict:
        """JSON form: {"points": [...], "distances": [[...], ...]}."""
        return {"points": list(self.labels), "distances": self._rows()}

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteMetricSpace":
        if "points" not in data or "distances" not in data:
            raise ValueError("space JSON needs 'points' and 'distances'")
        return validate_metric(data["points"], data["distances"])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteMetricSpace):
            return NotImplemented
        return self.labels == other.labels and self._flat == other._flat

    def __hash__(self):
        return hash((self.labels, self._flat.tobytes()))

    def __repr__(self) -> str:
        return f"FiniteMetricSpace({self.n} points, diameter {self.diameter():g})"


def _sorted_rows(flat: array, n: int) -> list[tuple[list[float], list[int]]]:
    """For each row, its off-diagonal entries in ascending order and the
    masks of their prefixes: masks[c] holds the columns of the c smallest."""
    table = []
    for i in range(n):
        row = flat[i * n : (i + 1) * n]
        values, masks, mask = [], [0], 0
        for j in sorted(range(n), key=row.__getitem__):
            if j != i:
                values.append(row[j])
                mask |= 1 << j
                masks.append(mask)
        table.append((values, masks))
    return table


def _adjacency_at_most(flat: array, n: int, bound: float) -> list[int]:
    """Adjacency masks of the pairs whose entry in a row-major n x n buffer
    is at most ``bound``: bit j of mask i is set iff entry (i, j) <= bound
    and i != j."""
    np = _numpy(n)
    if np is None:
        bits = bytes(map(le, flat, repeat(float(bound)))).translate(_BINARY)
        return [int(bits[i * n : (i + 1) * n][::-1], 2) & ~(1 << i) for i in range(n)]
    return _bitops.adjacency_from_bool(_view(np, flat, n) <= bound)


def _min_plus(out, left, right) -> None:
    """Relax ``out`` in place by the min-plus product of ``left`` and ``right``.

    For each pivot k in turn, ``out = min(out, left[:, k] + right[k, :])``.
    Each sum is formed in full before ``out`` is updated, and entries may be
    ``inf``. ``out`` may alias both factors: that is Floyd-Warshall, which
    ends at the all-pairs shortest paths when the diagonal is zero and no
    entry is negative.

    The factors are numpy arrays, or lists of row lists of nonnegative
    floats and ``inf``; then plain loops replace each row of ``out`` with a
    new list, and skip a row whose pivot entry is ``inf``, which gains
    nothing.
    """
    if isinstance(out, list):
        for k, pivot_row in enumerate(right):
            for i, via in enumerate([row[k] for row in left]):
                if via != math.inf:
                    out[i] = [o if o <= (s := via + p) else s for o, p in zip(out[i], pivot_row)]
        return
    import numpy as np

    buf = np.empty_like(out)
    with np.errstate(over="ignore"):  # a sum above the largest float is inf, as in Python
        for k in range(left.shape[1]):
            np.add(left[:, k, None], right[None, k, :], out=buf)
            np.minimum(out, buf, out=out)


# entries of one row tile of the triangle check: its two work arrays of
# 512 KB each stay in cache while every pivot passes over them. Point
# distances are computed, and matrices averaged with their transposes, in
# row blocks of the same number of entries.
_TILE_ENTRIES = 1 << 16


def _check_triangle(labels: tuple[str, ...], flat: array, tol: float) -> None:
    """Raise TriangleViolation for the first pair (i, j) in row-major order
    whose distance exceeds the shortest two-step path by more than tol.

    The matrix is exactly symmetric, and so is its min-plus square, so the
    first bad pair of the whole matrix lies above the diagonal: a bad pair
    below it is mirrored by one in an earlier row. The Python path takes
    each pair above the diagonal in turn; the numpy path forms the min-plus
    square one tile of rows at a time, only on and above the diagonal.
    """
    n = len(labels)
    np = _numpy(n)
    if np is None:
        rows = _rows_of(flat, n)
        for i, row in enumerate(rows):
            for j in range(i + 1, n):
                best = min(map(add, row, rows[j]))
                if row[j] > best + tol:
                    k = list(map(add, row, rows[j])).index(best)
                    raise TriangleViolation((labels[i], labels[k], labels[j]), row[j] - best)
        return
    d = _view(np, flat, n)
    step = _TILE_ENTRIES // n or 1
    if step >= n:  # one tile, the whole matrix: no slicing on small inputs
        tiles = [(0, d, d, d)]
    else:
        tiles = [
            (r0, d[r0 : r0 + step, r0:], d[r0 : r0 + step], d[:, r0:])
            for r0 in range(0, n, step)
        ]
    with np.errstate(over="ignore"):  # a sum above the largest float is inf, as in Python
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
) -> tuple[tuple[str, ...], array, float]:
    """Input checks shared by validate_metric and metric_closure.

    Returns the canonical labels, a fresh row-major buffer of the matrix
    made exactly symmetric with tiny negatives clamped and an exactly zero
    diagonal, and the absolute tolerance (``rel_tol`` scaled by the largest
    entry). The numpy path reads the input where it lies and writes only
    the buffer, so beside the input it holds one n x n array of floats and,
    briefly, one of booleans.
    """
    labels = _canonical_labels(labels)
    n = len(labels)
    flat = _buffer(matrix, n)
    if flat is None:
        return labels, *_checked_numpy(labels, matrix, rel_tol)
    if not all(map(math.isfinite, flat)):
        raise ValueError("distance matrix contains non-finite entries")
    tol = rel_tol * max(map(abs, flat))
    rows = _rows_of(flat, n)
    asym = max(
        (abs(rows[i][j] - rows[j][i]) for i in range(n) for j in range(i + 1, n)),
        default=0.0,
    )
    if asym > tol:
        raise AsymmetricMatrix(f"matrix differs from transpose by {asym:.3g}")
    for i, row in enumerate(rows):
        for j in range(i, n):
            row[j] = rows[j][i] = _mean(row[j], rows[j][i])
    if min(map(min, rows)) < -tol:
        i, j = next((i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v < -tol)
        raise NegativeDistance(f"d({labels[i]}, {labels[j]}) = {rows[i][j]:.6g} is negative")
    rows = [[v if v > 0.0 else 0.0 for v in row] for row in rows]
    diag = [rows[i][i] for i in range(n)]
    if max(diag) > tol:
        i = diag.index(max(diag))
        raise NonzeroDiagonal(f"d({labels[i]}, {labels[i]}) = {rows[i][i]:.6g} != 0")
    for i, row in enumerate(rows):
        row[i] = 0.0
    return labels, array("d", chain.from_iterable(rows)), tol


def _checked_numpy(labels: tuple[str, ...], matrix, rel_tol: float) -> tuple[array, float]:
    """The numpy path of _checked_matrix: the buffer and the tolerance."""
    import numpy as np

    src = np.asarray(matrix, dtype=np.float64)
    if src.ndim != 2 or src.shape[0] != src.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {src.shape}")
    n = len(labels)
    if src.shape[0] != n:
        raise ValueError(f"matrix is {src.shape[0]}x{src.shape[0]} but there are {n} labels")
    if n == 0:
        raise ValueError("a metric space needs at least one point")
    if not np.isfinite(src).all():
        raise ValueError("distance matrix contains non-finite entries")
    tol = rel_tol * abs(max(float(src.max()), -float(src.min())))
    flat = _zeros(n)
    d = _view(np, flat, n)
    with np.errstate(over="ignore"):  # a difference above the largest float is inf
        np.subtract(src, src.T, out=d)
    np.abs(d, out=d)
    asym = float(d.max())
    if asym > tol:
        raise AsymmetricMatrix(f"matrix differs from transpose by {asym:.3g}")
    _mean_into(np, d, src, src.T)
    if float(d.min()) < -tol:
        i, j = map(int, np.argwhere(d < -tol)[0])
        raise NegativeDistance(f"d({labels[i]}, {labels[j]}) = {d[i, j]:.6g} is negative")
    np.maximum(d, 0.0, out=d)
    diag = np.diagonal(d)
    if float(diag.max()) > tol:
        i = int(diag.argmax())
        raise NonzeroDiagonal(f"d({labels[i]}, {labels[i]}) = {d[i, i]:.6g} != 0")
    np.fill_diagonal(d, 0.0)
    return flat, tol


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
    the checks before it hold one n x n array beside the input, which the
    space then keeps. ``cluster`` on a 2,000-point matrix CSV thus takes
    about 10.5 s and peaks at 123 MB RSS. A failure
    raises TriangleViolation naming the first offending pair in row-major
    order, the cheapest intermediate point and the excess.
    ``check_triangle=False`` skips it.
    """
    labels, flat, tol = _checked_matrix(labels, matrix, rel_tol)
    if check_triangle:
        _check_triangle(labels, flat, tol)
    return FiniteMetricSpace._of(labels, flat)


def _add(a: list[float], b: list[float]) -> list[float]:
    return list(map(add, a, b))


def _sum(terms: list[list[float]]) -> list[float]:
    """The elementwise sums of fewer than 8 equal-length lists, added left
    to right as numpy's add.reduce does below 8 terms (it starts from -0.0,
    and -0.0 + t is t)."""
    return reduce(_add, terms)


# a distance whose sum of squares overflows is redone on the differences times
# _DOWN, whose squares cannot overflow, and its root times _UP: exact scalings
_DOWN, _UP = 2.0**-512, 2.0**512


def _euclidean(diff: list[list[float]]) -> list[float]:
    out = list(map(math.sqrt, _sum([[t * t for t in c] for c in diff])))
    if math.inf in out:
        down = _sum([[(t * _DOWN) * (t * _DOWN) for t in c] for c in diff])
        out = [v if v != math.inf else math.sqrt(w) * _UP for v, w in zip(out, down)]
    return out


def _euclidean_np(np, diff):
    out = np.sqrt((diff * diff).sum(axis=2))
    big = np.isinf(out)
    if big.any():
        down = diff[big] * _DOWN
        out[big] = np.sqrt((down * down).sum(axis=1)) * _UP
    return out


# each norm maps coordinate differences to distances, as a pair: in Python,
# one list of differences per coordinate to the list of distances; in numpy,
# a block of rows against every point, shape (rows, n, dim), to (rows, n)
_POINT_NORMS = {
    "euclidean": (_euclidean, _euclidean_np),
    "manhattan": (
        lambda diff: _sum([list(map(abs, c)) for c in diff]),
        lambda np, diff: np.abs(diff).sum(axis=2),
    ),
    "chebyshev": (  # abs is never -0.0, so the extra 0.0 changes no maximum
        lambda diff: list(map(max, *[map(abs, c) for c in diff], repeat(0.0))),
        lambda np, diff: np.abs(diff).max(axis=2),
    ),
}


def _point_rows(points) -> list[list[float]] | None:
    """The coordinates as lists of floats when there are fewer than
    ``_NUMPY_MIN_POINTS`` points, at least one, each of one to 7 finite
    real coordinates (a flat sequence of numbers is one coordinate a
    point); None otherwise. From 8 coordinates numpy sums in interleaved
    partial sums, so those points take its path."""
    try:
        if not 0 < len(points) < _NUMPY_MIN_POINTS:
            return None
    except TypeError:
        return None
    rows = points.tolist() if hasattr(points, "tolist") else points
    if type(rows) not in (list, tuple):
        return None
    try:
        if type(rows[0]) not in (list, tuple, array):
            out = [[v] for v in array("d", rows)]
        elif all(type(r) in (list, tuple, array) and len(r) == len(rows[0]) for r in rows):
            out = [array("d", r).tolist() for r in rows]
        else:
            return None
    except (TypeError, ValueError, OverflowError):
        return None
    if not 0 < len(out[0]) < 8 or not all(map(math.isfinite, chain.from_iterable(out))):
        return None
    return out


def space_from_points(
    points, metric: str = "euclidean", labels: Iterable[str] | None = None
) -> FiniteMetricSpace:
    """Build a space from coordinate rows under a named norm.

    Supported metrics: euclidean, manhattan, chebyshev. The triangle
    inequality holds by construction, so no cubic re-check is run.

    Below ``_NUMPY_MIN_POINTS`` points of fewer than 8 coordinates, Python
    lists take each point against every later one, summing left to right
    as numpy does. Otherwise numpy fills the matrix one block of rows at a
    time; a block holds about ``_TILE_ENTRIES`` coordinate differences (at
    least one row of them), so beside the n x n result only one block is
    held.
    """
    rows = _point_rows(points)
    if rows is not None:
        norm = _POINT_NORMS.get(metric)
        if norm is None:
            raise ValueError(f"unknown point metric {metric!r}")
        n = len(rows)
        cols = [list(c) for c in zip(*rows)]
        flat = _zeros(n)
        for i in range(n - 1):
            # point i against every later point, one coordinate at a time
            v = array("d", norm[0]([list(map(c[i].__sub__, c[i + 1 :])) for c in cols]))
            flat[i * n + i + 1 : (i + 1) * n] = v
            flat[(i + 1) * n + i :: n] = v
    else:
        import numpy as np

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
        flat = _zeros(n)
        d = _view(np, flat, n)
        with np.errstate(over="ignore"):  # points too far apart are at inf
            for r0 in range(0, n, step):
                d[r0 : r0 + step] = norm[1](np, pts[r0 : r0 + step, None, :] - pts[None, :, :])
        # an entry and its mirror are computed alike, so the average, which
        # never overflows, changes no entry: it only makes symmetry exact
        _symmetrize(np, d)
        np.fill_diagonal(d, 0.0)
    if labels is None:
        width = len(str(n - 1))
        labels = [f"p{i:0{width}d}" for i in range(n)]
    return FiniteMetricSpace._of(labels, flat)


def path_space(k: int, delta: float) -> FiniteMetricSpace:
    """The (k+1)-point path at step delta: d(i, j) = delta * |i - j|."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("path space needs an integer k >= 1")
    if not 0 <= delta < math.inf:
        raise ValueError(f"path space step must be finite and nonnegative, got {delta!r}")
    width = len(str(k))
    labels = [f"{i:0{width}d}" for i in range(k + 1)]
    points = range(k + 1)
    return FiniteMetricSpace._of(
        labels, array("d", [delta * float(abs(i - j)) for i in points for j in points])
    )


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
    labels, flat, _ = _checked_matrix(labels, matrix, rel_tol)
    n = len(labels)
    np = _numpy(n)
    if np is None:
        rows = _rows_of(flat, n)
        _min_plus(rows, rows, rows)
        for i, row in enumerate(rows):
            row[i] = 0.0
            for j in range(i + 1, n):
                row[j] = rows[j][i] = _mean(row[j], rows[j][i])
        flat = array("d", chain.from_iterable(rows))
    else:
        d = _view(np, flat, n)
        _min_plus(d, d, d)
        _symmetrize(np, d)
        np.fill_diagonal(d, 0.0)
    return FiniteMetricSpace._of(labels, flat)


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

    def _pullback(self) -> array:
        """The target's distances between the images of the source points,
        as a row-major buffer in source label order."""
        flat, m = self.target._flat, self.target.n
        idx = [self.target.index(self.assignment[x]) for x in self.source.labels]
        return array("d", [flat[a * m + b] for a in idx for b in idx])

    def pullback_matrix(self):
        """The pullback distances as an (n, n) numpy array."""
        import numpy as np

        return _view(np, self._pullback(), self.source.n)

    def pullback_metric(self) -> FiniteMetricSpace:
        """Source labels carrying the target's distances between images.

        Always a pseudometric; zero distance between distinct points occurs
        exactly where the map collapses them.
        """
        return FiniteMetricSpace._of(self.source.labels, self._pullback())

    def is_nonexpansive(self, rel_tol: float = REL_TOL) -> bool:
        tol = rel_tol * max(self.source.diameter(), self.target.diameter())
        return all(map(le, self._pullback(), map(tol.__add__, self.source._flat)))

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
    bound = [[v + tol for v in row] for row in source._rows()]
    tgt = target._rows()
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
