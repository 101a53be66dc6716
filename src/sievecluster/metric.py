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

A point cloud of at least ``_NUMPY_MIN_POINTS`` points in one to seven
coordinates keeps its coordinates and builds its buffer (with numpy) only
when something reads a distance. Until then its threshold masks come from
a cell grid of the coordinates (``_Cloud``), which compares only nearby
pairs, so a command that reads nothing but those masks runs without numpy
and without the n x n buffer.

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
from itertools import chain, product, repeat
from operator import add, le, sub
from typing import Iterable, Mapping, Sequence

from ._names import _string_lists
from .errors import (
    AsymmetricMatrix,
    DuplicateLabel,
    InvalidArgument,
    NegativeDistance,
    NonzeroDiagonal,
    TriangleViolation,
)

REL_TOL = 1e-9

# Dense kernels on fewer points run Python loops, on more numpy, whose
# import adds about 130 ms and 13 MB to a command. On a 2-vCPU Xeon VM the
# loops cost less than that up to about 150 points for the cubic triangle
# check (72 ms at 128, against 5 ms in numpy) and 165 for the cubic
# closure (36-40 ms at 100 points and 57-63 ms at 128, against 2-4 ms),
# and far beyond for the quadratic kernels (point distances: 18 ms at 128,
# against 1.3 ms). From here a point cloud in 1-7 coordinates builds its
# buffer only when read.
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


def _float_array(np, values, message: str):
    """values as a float64 array, as np.asarray makes it; InvalidArgument
    with ``message``, which says what shape they must have, where numpy
    cannot convert them (ragged rows, a string that is not a number, an
    integer beyond the largest float)."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgument(message) from exc


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

    A space built from a large point cloud holds its coordinates instead
    (``_cloud``) until its buffer is first read; see :func:`space_from_points`.
    """

    __slots__ = ("labels", "_buf", "_cloud", "_dist", "_index", "_sorted_rows")

    def __init__(self, labels: Iterable[str], dist):
        labels = _canonical_labels(labels)
        n = len(labels)
        flat = _buffer(dist, n)
        if flat is None:
            import numpy as np

            matrix = _float_array(
                np, dist, f"distance matrix must be {n} rows of {n} finite numbers"
            )
            if matrix.shape != (n, n):
                raise InvalidArgument(
                    f"distance matrix shape {matrix.shape} does not match {n} labels"
                )
            if n == 0:
                raise InvalidArgument("a metric space needs at least one point")
            flat = _zeros(n)
            np.add(matrix, 0.0, out=_view(np, flat, n))  # 0.0 + -0.0 is +0.0
        else:
            flat = array("d", map(_PLUS_ZERO, flat))
        self._adopt(labels, flat)

    @classmethod
    def _of(cls, labels: Sequence[str], flat: array) -> "FiniteMetricSpace":
        """The space on ``labels`` (distinct strings in any order, as
        _canonical_labels gives them) that takes over ``flat``, a fresh
        row-major buffer of their distances with no -0.0."""
        space = cls.__new__(cls)
        space._adopt(labels, flat)
        return space

    @classmethod
    def _of_cloud(cls, labels: Sequence[str], rows: list[list[float]], metric: str):
        """The space on ``labels`` (distinct strings in any order) of the
        coordinate rows under the named norm, whose buffer is built when
        first read."""
        n = len(rows)
        if len(labels) != n:
            raise InvalidArgument(
                f"distance matrix shape {(n, n)} does not match {len(labels)} labels"
            )
        order = sorted(range(n), key=labels.__getitem__)
        space = cls.__new__(cls)
        cols = [list(c) for c in zip(*(rows[i] for i in order))]
        space._keep(labels, order, None, _Cloud(cols, metric))
        return space

    def _adopt(self, labels: tuple[str, ...], flat: array) -> None:
        """Sort the labels and permute the buffer to match (in place on the
        numpy path)."""
        n = len(labels)
        if len(flat) != n * n:
            m = math.isqrt(len(flat))
            raise InvalidArgument(f"distance matrix shape {(m, m)} does not match {n} labels")
        order = sorted(range(n), key=labels.__getitem__)
        if order != list(range(n)):
            np = _numpy(n)
            if np is None:
                flat = array("d", [flat[i * n + j] for i in order for j in order])
            else:
                _permute(np, _view(np, flat, n), list(order))
        self._keep(labels, order, flat, None)

    def _keep(self, labels, order: list[int], flat: array | None, cloud) -> None:
        self.labels = tuple(labels[i] for i in order)
        self._buf = flat
        self._cloud = cloud
        self._dist = None
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._sorted_rows = None

    @property
    def _flat(self) -> array:
        """The distances as a row-major stdlib buffer, built from the
        coordinates the first time a space of a large cloud is read."""
        if self._buf is None:
            self._buf = self._cloud.buffer()
            self._cloud = None
        return self._buf

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
        """The distance from a to b; a space of a large cloud whose buffer
        is not built yet computes that one entry."""
        i, j = self._index[a], self._index[b]
        if self._buf is None:
            return self._cloud.distance(i, j)
        return self._flat[i * self.n + j]

    def diameter(self) -> float:
        """The largest distance; a space of a large cloud whose buffer is
        not built yet reads it from the coordinates and leaves the buffer
        unbuilt."""
        if self._buf is None:
            return self._cloud.diameter()
        return max(self._flat)

    def _adjacency(self, bound: float) -> list[int]:
        """Adjacency masks of the pairs at distance <= bound (no self-bits).

        A space of a large cloud whose buffer is not built yet answers from
        its cell grid (``_Cloud.adjacency``), with the same masks, unless
        the grid cannot; then the buffer is built. Once _sort_rows has kept
        the sorted rows, each call is one bisection a row.
        """
        if self._buf is None:
            adj = self._cloud.adjacency(bound)
            if adj is not None:
                return adj
        table = self._sorted_rows
        if table is None or math.isnan(bound):
            return _adjacency_at_most(self._flat, self.n, bound)
        return [masks[bisect_right(values, bound)] for values, masks in table]

    def _sort_rows(self) -> None:
        """Keep each row sorted, with the masks of its prefixes, for the
        many _adjacency calls of a sieve. Not from _NUMPY_MIN_POINTS points
        on, nor with a NaN, which sorts nowhere."""
        if self._sorted_rows is None and self.n < _NUMPY_MIN_POINTS:
            if not any(map(math.isnan, self._flat)):
                self._sorted_rows = _sorted_rows(self._flat, self.n)

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
        """The space of a parsed space JSON. Its shape is checked here, so
        that a wrong one gets a message naming the key: 'points' must be a
        list of strings, and 'distances' a list of n lists of n numbers
        (booleans are not numbers). validate_metric then checks the values."""
        if not isinstance(data, dict) or "points" not in data or "distances" not in data:
            raise InvalidArgument("space JSON needs 'points' and 'distances'")
        labels, rows = _string_lists(data, "points", 1), data["distances"]
        if not isinstance(rows, list) or not all(
            isinstance(row, list)
            and len(row) == len(rows)
            and all(isinstance(d, (int, float)) and not isinstance(d, bool) for d in row)
            for row in rows
        ):
            raise InvalidArgument("'distances' must be a list of n lists of n numbers")
        return validate_metric(labels, rows)

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
    packed = np.packbits(_view(np, flat, n) <= bound, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") & ~(1 << i) for i, row in enumerate(packed)]


def _min_plus(out, left, right) -> None:
    """Relax the numpy array ``out`` in place by the min-plus product of
    ``left`` and ``right``.

    For each pivot k in turn, ``out = min(out, left[:, k] + right[k, :])``.
    Each sum is formed in full before ``out`` is updated, and entries may be
    ``inf``. ``out`` may alias both factors: that is Floyd-Warshall, which
    ends at the all-pairs shortest paths when the diagonal is zero and no
    entry is negative.
    """
    import numpy as np

    buf = np.empty_like(out)
    with np.errstate(over="ignore"):  # a sum above the largest float is inf, as in Python
        for k in range(left.shape[1]):
            np.add(left[:, k, None], right[None, k, :], out=buf)
            np.minimum(out, buf, out=out)


def _floyd_warshall(d: list[float], n: int) -> None:
    """Floyd-Warshall in place on the row-major n x n list ``d``, which is
    exactly symmetric with a +0.0 diagonal and no negative entry. Every
    pivot keeps it so (see metric_closure), so only the pairs i < j are
    relaxed, each improved entry is written to its mirror too, and the
    result has the bytes of ``_min_plus(d, d, d)``. Pivot k leaves row k
    as it was, and a tie keeps the old entry.
    """
    for k in range(n):
        pivot = d[k * n : (k + 1) * n]
        for i in range(n - 1):
            via = pivot[i]
            row = i * n
            for j in range(i + 1, n):
                s = via + pivot[j]
                if s < d[row + j]:
                    d[row + j] = d[j * n + i] = s


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
    made exactly symmetric with tiny negatives and every -0.0 set to +0.0
    and an exactly zero diagonal, ready for FiniteMetricSpace._of, and the
    absolute tolerance (``rel_tol`` scaled by the largest entry). The numpy
    path reads the input where it lies and writes only the buffer, so
    beside the input it holds one n x n array of floats and, briefly, one
    of booleans.
    """
    if not 0.0 <= rel_tol < math.inf:
        raise InvalidArgument(f"rel_tol must be finite and nonnegative, got {rel_tol!r}")
    labels = _canonical_labels(labels)
    n = len(labels)
    flat = _buffer(matrix, n)
    if flat is None:
        return labels, *_checked_numpy(labels, matrix, rel_tol)
    d = flat.tolist()
    if not all(map(math.isfinite, d)):
        raise InvalidArgument("distance matrix contains non-finite entries")
    tol = rel_tol * max(map(abs, d))
    # one pass over the rows: the part of row i above the diagonal against
    # its mirror, column i below it; a row whose parts differ is averaged
    asym = 0.0
    for i in range(n - 1):
        upper, lower = slice(i * n + i + 1, (i + 1) * n), slice((i + 1) * n + i, None, n)
        a, b = d[upper], d[lower]
        if a != b:
            asym = max(asym, *map(abs, map(sub, a, b)))
            d[upper] = d[lower] = list(map(_mean, a, b))
    if asym > tol:
        raise AsymmetricMatrix(f"matrix differs from transpose by {asym:.3g}")
    if min(d) < -tol:
        i, j = divmod(next(k for k, v in enumerate(d) if v < -tol), n)
        raise NegativeDistance(f"d({labels[i]}, {labels[j]}) = {d[i * n + j]:.6g} is negative")
    d = [v if v > 0.0 else 0.0 for v in d]
    diag = d[:: n + 1]
    if max(diag) > tol:
        i = diag.index(max(diag))
        raise NonzeroDiagonal(f"d({labels[i]}, {labels[i]}) = {diag[i]:.6g} != 0")
    d[:: n + 1] = [0.0] * n
    return labels, array("d", d), tol


def _checked_numpy(labels: tuple[str, ...], matrix, rel_tol: float) -> tuple[array, float]:
    """The numpy path of _checked_matrix: the buffer and the tolerance."""
    import numpy as np

    n = len(labels)
    src = _float_array(np, matrix, f"distance matrix must be {n} rows of {n} finite numbers")
    if src.ndim != 2 or src.shape[0] != src.shape[1]:
        raise InvalidArgument(f"distance matrix must be square, got shape {src.shape}")
    if src.shape[0] != n:
        raise InvalidArgument(f"matrix is {src.shape[0]}x{src.shape[0]} but there are {n} labels")
    if n == 0:
        raise InvalidArgument("a metric space needs at least one point")
    if not np.isfinite(src).all():
        raise InvalidArgument("distance matrix contains non-finite entries")
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
    d[d <= 0.0] = 0.0  # +0.0 over -0.0 too, which np.maximum need not write
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

    Tolerance is ``rel_tol`` scaled by the largest entry; a ``rel_tol``
    that is negative, infinite or nan raises InvalidArgument. Asymmetry beyond
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
    """The coordinates as lists of floats when there is at least one
    point, each of one to 7 finite real coordinates (a flat sequence of
    numbers is one coordinate a point); None otherwise. From 8
    coordinates numpy sums in interleaved partial sums, so those points
    take its path."""
    try:
        if not len(points):
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


def _point_blocks(np, pts, norm):
    """The distances between the rows of the (n, dim) array ``pts`` under
    a norm's numpy kernel, one block of rows against every row at a time,
    as (first row, block) pairs. A block holds about ``_TILE_ENTRIES``
    coordinate differences (at least one row of them)."""
    n, dim = pts.shape
    step = _TILE_ENTRIES // max(n * dim, 1) or 1
    for r0 in range(0, n, step):
        with np.errstate(over="ignore"):  # points too far apart are at inf
            block = norm(np, pts[r0 : r0 + step, None, :] - pts[None, :, :])
        yield r0, block


def _point_buffer(np, pts, norm) -> array:
    """The row-major buffer of the distances between the rows of the
    (n, dim) array ``pts`` under a norm's numpy kernel, filled from
    ``_point_blocks``, so beside the n x n result only one block is
    held."""
    n = len(pts)
    flat = _zeros(n)
    d = _view(np, flat, n)
    for r0, block in _point_blocks(np, pts, norm):
        d[r0 : r0 + len(block)] = block
    # entry (j, i) is computed from the negated differences of entry (i, j),
    # which every norm, sum order and rescale maps to the same bytes: the
    # buffer is exactly symmetric as it stands
    np.fill_diagonal(d, 0.0)
    return flat


# a cell grid indexes coordinates at most this many cell sides from the
# smallest, where rounding moves an index by less than 2**-23 of a cell
_MAX_CELLS = 2.0**28


class _Cloud:
    """The coordinates of a point cloud, one list per coordinate in label
    order, and the name of its norm: a space keeps these in place of its
    distance buffer until the buffer is read."""

    __slots__ = ("cols", "metric")

    def __init__(self, cols: list[list[float]], metric: str):
        self.cols = cols
        self.metric = metric

    def _points(self, np):
        return np.ascontiguousarray(np.array(self.cols, dtype=np.float64).T)

    def buffer(self) -> array:
        """The distance buffer, built by numpy as for any large cloud."""
        import numpy as np

        return _point_buffer(np, self._points(np), _POINT_NORMS[self.metric][1])

    def diameter(self) -> float:
        """The largest entry of the buffer, read block by block from the
        kernel that builds it (the same bytes; its diagonal is 0.0, as
        the buffer's), so only one block is held."""
        import numpy as np

        blocks = _point_blocks(np, self._points(np), _POINT_NORMS[self.metric][1])
        return max(float(block.max()) for _, block in blocks)

    def distance(self, i: int, j: int) -> float:
        """The buffer's entry for points i and j, by the Python kernel of
        the norm, which gives the same bytes (1 to 7 coordinates; on the
        diagonal every difference is 0.0, and so is the distance)."""
        return _POINT_NORMS[self.metric][0]([[c[i] - c[j]] for c in self.cols])[0]

    def adjacency(self, bound: float) -> list[int] | None:
        """The masks of the pairs at distance <= bound, found on a grid of
        cells of side ``s = bound * (1 + 2**-20) + 2**-499`` over the (at
        most) three coordinates of widest extent. None for a bound that is
        not positive and finite, when the grid would span more than
        ``_MAX_CELLS`` cells along a coordinate (or an infinite number),
        and when it would compare so many pairs that building the buffer
        costs less.

        Only the pairs in the same or adjacent cells are compared, with
        the Python kernel of the norm, which gives the buffer's bytes
        (1 to 7 coordinates); a pair is related iff that distance is <=
        bound, so the masks are those of the buffer.

        The grid misses no related pair. Each norm bounds every
        coordinate difference by the distance, and so do the computed
        values: with t the rounded difference, chebyshev's maximum and
        manhattan's sum are at least |t|, and euclidean's root is at least
        |t| * (1 - 2**-52) unless t * t underflows, where |t| < 2**-511.
        A related pair thus differs by at most ``D = bound * (1 + 2**-50)
        + 2**-500`` along each coordinate, and ``D / s < 1 - 2**-21``. A
        cell index, the floor of ``(x - low) / s`` computed with two
        roundings, is then within ``2**-23`` of the exact quotient, which
        is at most ``_MAX_CELLS``; so the two computed quotients differ by
        less than 1, and their floors, the cells, by at most 1.
        """
        if not 0.0 < bound < math.inf:
            return None
        side = bound * (1.0 + 2.0**-20) + 2.0**-499
        cols = self.cols
        lows = [min(c) for c in cols]
        spans = [(max(c) - low) / side for c, low in zip(cols, lows)]
        if not all(span <= _MAX_CELLS for span in spans):
            return None
        axes = sorted(range(len(cols)), key=spans.__getitem__)[-3:]
        keys = zip(*([int((v - lows[k]) / side) for v in cols[k]] for k in axes))
        cells: dict[tuple[int, ...], list[int]] = {}
        for i, key in enumerate(keys):
            cells.setdefault(key, []).append(i)
        # each pair of adjacent cells once: a cell and those after it; a
        # cell's k-th member is compared with the candidates after it
        ahead = [o for o in product((-1, 0, 1), repeat=len(axes)) if o > (0,) * len(axes)]
        groups = [
            (members, members + [j for o in ahead for j in cells.get(tuple(map(add, key, o)), ())])
            for key, members in cells.items()
        ]
        # on a 2-vCPU Xeon VM the grid compares a pair in 0.7-1.6 us (2 to 7
        # coordinates), and numpy builds and thresholds the buffer in 50-100
        # ns an entry after a 0.15 s import: past this many pairs the buffer
        # costs about as little
        n = len(cols[0])
        if sum(len(m) * (2 * len(c) - len(m) - 1) for m, c in groups) // 2 > n * n // 16 + 100_000:
            return None
        distances = _POINT_NORMS[self.metric][0]
        near: list[list[int]] = [[] for _ in range(n)]
        for members, cand in groups:
            cand_cols = [[c[j] for j in cand] for c in cols]
            for pos, i in enumerate(members, 1):
                if pos == len(cand):
                    break
                diff = [list(map(c[i].__sub__, cc[pos:])) for c, cc in zip(cols, cand_cols)]
                for j, d in zip(cand[pos:], distances(diff)):
                    if d <= bound:
                        near[i].append(j)
                        near[j].append(i)
        # each related pair was found once, so adding its bits sets them
        return [sum(map((1).__lshift__, js)) for js in near]


def _extent_norm(rows, metric: str) -> float:
    """The norm of the coordinates' extents (largest minus smallest) of
    the rows, one sequence of numbers a point, by the Python kernel that
    ``space_from_points`` uses in 1 to 7 coordinates; inf from 8, where
    numpy sums in another order. When it is finite, so is every distance
    between the rows: each rounded coordinate difference is at most the
    rounded extent, and each step of the kernel (abs, squares, sums,
    maximum, root, and the exact rescaling of a sum that overflows) is
    monotone."""
    if len(rows[0]) >= 8:
        return math.inf
    extents = [max(c) - min(c) for c in zip(*rows)]
    return _POINT_NORMS[metric][0]([[e] for e in extents])[0]


def space_from_points(
    points, metric: str = "euclidean", labels: Iterable[str] | None = None
) -> FiniteMetricSpace:
    """Build a space from coordinate rows under a named norm.

    Supported metrics: euclidean, manhattan, chebyshev. The triangle
    inequality holds by construction, so no cubic re-check is run.

    Below ``_NUMPY_MIN_POINTS`` points of fewer than 8 coordinates, Python
    lists take each point against every later one, summing left to right
    as numpy does. From that many such points, the space keeps the
    coordinates and builds its buffer with numpy (``_point_buffer``) only
    when something first reads a distance; until then its threshold masks
    come from a cell grid (``_Cloud.adjacency``), so no n x n buffer is
    made for them. Any other input builds its buffer with numpy at once.
    """
    rows = _point_rows(points)
    if rows is None:
        import numpy as np

        message = "expected a non-empty 2d array of coordinates"
        pts = _float_array(np, points, message)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise InvalidArgument(message)
    norm = _POINT_NORMS.get(metric)
    if norm is None:
        raise InvalidArgument(f"unknown point metric {metric!r}")
    n = len(pts) if rows is None else len(rows)
    if labels is None:
        width = len(str(n - 1))
        labels = [f"p{i:0{width}d}" for i in range(n)]
    labels = _canonical_labels(labels)
    if rows is None:
        return FiniteMetricSpace._of(labels, _point_buffer(np, pts, norm[1]))
    if n >= _NUMPY_MIN_POINTS:
        return FiniteMetricSpace._of_cloud(labels, rows, metric)
    cols = [list(c) for c in zip(*rows)]
    flat = _zeros(n)
    for i in range(n - 1):
        # point i against every later point, one coordinate at a time
        v = array("d", norm[0]([list(map(c[i].__sub__, c[i + 1 :])) for c in cols]))
        flat[i * n + i + 1 : (i + 1) * n] = v
        flat[(i + 1) * n + i :: n] = v
    return FiniteMetricSpace._of(labels, flat)


def path_space(k: int, delta: float) -> FiniteMetricSpace:
    """The (k+1)-point path at step delta: d(i, j) = delta * |i - j|."""
    if not isinstance(k, int) or k < 1:
        raise InvalidArgument("path space needs an integer k >= 1")
    if not 0 <= delta < math.inf:
        raise InvalidArgument(f"path space step must be finite and nonnegative, got {delta!r}")
    delta += 0.0  # -0.0 becomes +0.0
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

    The checked matrix is exactly symmetric, with a +0.0 diagonal and no
    negative entry, and each pivot k keeps it so. The pivot changes no
    entry of row or column k (d[k][k] is 0), so every sum it forms reads
    entries from before it; the sum for (j, i), d[j][k] + d[k][i], adds the
    same two entries as the sum for (i, j), d[i][k] + d[k][j], in swapped
    order, and IEEE addition is commutative; and no sum of nonnegative
    entries is below the diagonal's +0.0. The closure is thus exactly
    symmetric with a zero diagonal as it stands, on both paths, and needs
    no pass that averages it with its transpose. The Python path relaxes
    only the pairs above the diagonal (``_floyd_warshall``).
    """
    labels, flat, _ = _checked_matrix(labels, matrix, rel_tol)
    n = len(labels)
    np = _numpy(n)
    if np is None:
        d = flat.tolist()
        _floyd_warshall(d, n)
        flat = array("d", d)
    else:
        d = _view(np, flat, n)
        _min_plus(d, d, d)
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
            raise InvalidArgument(f"assignment missing source labels: {missing}")
        bad = sorted(
            {v for k, v in assignment.items() if k in source._index}
            - set(target.labels)
        )
        if bad:
            raise InvalidArgument(f"assignment values outside target: {bad}")
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
            raise InvalidArgument("composition endpoints do not match")
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
