"""File ingestion and canonical serialization.

CSV in, JSON out. A CSV file can hold either a square distance matrix or a
point cloud; ``ingest_space`` auto-detects which (overridable) under these
rules, documented so files can be authored by hand:

* every cell numeric: a square, symmetric grid with zero diagonal is a
  matrix; anything else is a point cloud, one point per row;
* first header cell ``label`` (case-insensitive): the remaining header
  cells name matrix columns when they equal the first-column cells of the
  body in order, otherwise they name coordinates of a labeled point cloud;
* non-numeric first column without a header: a labeled point cloud.

All JSON output is canonical (sorted keys, two-space indent, trailing
newline, shortest round-trip float form), so equal objects serialize to
byte-identical files. canonical_json_bytes encodes any object; a sieve,
whose covers repeat most blocks of the one before, is streamed cover by
cover to the same bytes by _sieve_json.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import os
from array import array
from json.encoder import encode_basestring
from typing import Iterator, NamedTuple

# metric's functions are looked up on the module at call time, so a
# wrapper installed there later (a profiler, a tracer) sees these calls too
from . import metric
from .errors import InputFormatError
from .metric import REL_TOL, FiniteMetricSpace

POINT_NORMS = ("euclidean", "manhattan", "chebyshev")
FORMATS = ("auto", "matrix", "points")


def _csv_rows(path: str):
    """The rows of a CSV file that hold a non-blank cell, cells unstripped."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.reader(fh):
                if any(cell.strip() for cell in row):
                    yield row
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path} is not valid UTF-8 text") from exc
    except csv.Error as exc:  # a cell longer than csv.field_size_limit()
        raise InputFormatError(f"{path}: {exc}") from exc


class _Table(NamedTuple):
    """A CSV file as read: only its first row and first column as text."""

    head: list[str]  # the first row, cells stripped
    first: list[str]  # the first cell of every row, stripped
    grid: array  # every cell as a float, row-major, NaN where it is not a number


def _value(cell: str) -> float:
    """The cell as a float, or NaN when it is not a number."""
    try:
        return float(cell.strip())
    except ValueError:
        return math.nan


def _read_table(path: str) -> _Table:
    """Read a CSV file in one pass, turning each row's cells into floats as
    the row is read, so no table of strings is ever held.

    The grid is one stdlib float array that grows as rows are read. Every
    row must be as wide as the first. The first row that is not is
    reported only after the whole file is read, so that a decoding error
    anywhere in the file takes precedence, as it does for any reader that
    reads the file whole before checking it.
    """
    head: list[str] = []
    first: list[str] = []
    grid = array("d")
    bad_width = None
    for i, row in enumerate(_csv_rows(path)):
        if not head:
            head = [cell.strip() for cell in row]
            width = len(head)
        if bad_width or len(row) != width:
            bad_width = bad_width or (i, len(row))
            continue
        first.append(row[0].strip())
        grid.append(_value(row[0]))
        end = len(grid)
        try:  # float() skips most padding itself; _value strips the rest
            grid.extend(map(float, row[1:]))
        except ValueError:  # a cell that is not a number becomes NaN
            del grid[end:]
            grid.extend(map(_value, row[1:]))
    if not head:
        raise InputFormatError(f"{path} contains no data rows")
    if bad_width:
        i, got = bad_width
        raise InputFormatError(f"{path}: row {i + 1} has {got} fields, expected {width}")
    return _Table(head, first, grid)


def _cells(t: _Table, skip_row0: bool = False, skip_col0: bool = False, points: bool = False):
    """The grid below the first row when ``skip_row0`` and right of the
    first column when ``skip_col0``: as a list of float arrays, one a row,
    for a point cloud (``points``) or when it has fewer rows than
    ``metric._NUMPY_MIN_POINTS``, else as a zero-copy numpy view."""
    width = len(t.head)
    r0, c0 = int(skip_row0), int(skip_col0)
    np = None if points else metric._numpy(len(t.first) - r0)
    if np is None:
        return [t.grid[r * width + c0 : (r + 1) * width] for r in range(r0, len(t.first))]
    return np.frombuffer(t.grid, dtype=np.float64).reshape(-1, width)[r0:, c0:]


def _all_finite(cells) -> bool:
    if isinstance(cells, list):
        return all(all(map(math.isfinite, row)) for row in cells)
    import numpy as np

    return bool(np.isfinite(cells).all())


def _as_number(cell: str, where: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise InputFormatError(f"{where}: {cell!r} is not a number") from None
    if not math.isfinite(value):
        raise InputFormatError(f"{where}: {cell!r} is not finite")
    return value


def _is_number(cell: str) -> bool:
    return math.isfinite(_value(cell))


def _numeric_grid(
    table: _Table, path: str, skip_row0: bool = False, skip_col0: bool = False, points: bool = False
):
    """The cells below the first row when ``skip_row0`` and right of the
    first column when ``skip_col0``, as _cells gives them, which must all
    be finite numbers."""
    grid = _cells(table, skip_row0, skip_col0, points)
    if not _all_finite(grid):
        # only the first row and column were kept as text: read the file
        # again to name the first offending cell in row-major order
        rows = itertools.islice(_csv_rows(path), int(skip_row0), None)
        for i, row in enumerate(rows):
            for j, c in enumerate(row[int(skip_col0):]):
                _as_number(c.strip(), f"{path}: row {i + 1}, column {j + 1 + skip_col0}")
        raise InputFormatError(f"{path} changed while it was read")
    return grid


def _looks_like_matrix(grid) -> bool:
    """Whether finite cells, as _cells gives them, form a square grid that
    is symmetric with a zero diagonal, up to REL_TOL of the largest."""
    if isinstance(grid, list):
        n = len(grid)
        if n != len(grid[0]):
            return False
        tol = REL_TOL * max(max(map(abs, row)) for row in grid)
        return all(abs(grid[i][i]) <= tol for i in range(n)) and all(
            abs(grid[i][j] - grid[j][i]) <= tol for i in range(n) for j in range(n)
        )
    import numpy as np

    n, m = grid.shape
    if n != m:
        return False
    tol = REL_TOL * float(np.abs(grid).max())
    return bool(
        (np.abs(np.diagonal(grid)) <= tol).all()
        and (np.abs(grid - grid.T) <= tol).all()
    )


def _unlabeled_matrix(grid, rel_tol: float) -> FiniteMetricSpace:
    n = len(grid)
    width = max(2, len(str(n - 1)))
    labels = [f"p{i:0{width}d}" for i in range(n)]
    return metric.validate_metric(labels, grid, rel_tol=rel_tol)


def _dedupe_labels(labels: list[str], path: str) -> None:
    seen: dict[str, int] = {}
    for i, lab in enumerate(labels):
        if not lab:
            raise InputFormatError(f"{path}: empty label in row {i + 2}")
        if lab in seen:
            raise InputFormatError(
                f"{path}: duplicate label {lab!r} (rows {seen[lab] + 2} and {i + 2})"
            )
        seen[lab] = i


def _matrix_space(t: _Table, path: str, rel_tol: float) -> FiniteMetricSpace:
    if _is_number(t.head[0]):
        grid = _numeric_grid(t, path)
        n, m = len(t.first), len(t.head)
        if n != m:
            raise InputFormatError(
                f"{path}: matrix must be square, got {n} rows x {m} columns"
            )
        return _unlabeled_matrix(grid, rel_tol)
    labels = t.first[1:]
    if not labels:
        raise InputFormatError(f"{path}: matrix has a header but no rows")
    _dedupe_labels(labels, path)
    if t.head[1:] != labels:
        raise InputFormatError(
            f"{path}: matrix column header {t.head[1:]} must equal the row "
            f"labels {labels} in the same order"
        )
    grid = _numeric_grid(t, path, skip_row0=True, skip_col0=True)
    return metric.validate_metric(labels, grid, rel_tol=rel_tol)


def _point_space(coords, path: str, norm: str, labels=None) -> FiniteMetricSpace:
    """The space of finite coordinate rows, whose distances must be finite
    too: two points further apart than the largest float are refused.

    A finite norm of the coordinates' extents proves every distance
    finite without reading one, so a large cloud's buffer stays unbuilt;
    otherwise every distance is checked."""
    x = metric.space_from_points(coords, metric=norm, labels=labels)
    if math.isfinite(metric._extent_norm(coords, norm)) or _all_finite(
        x.dist if metric._numpy(x.n) else [x._flat]
    ):
        return x
    i = next(i for i, d in enumerate(x._flat) if not math.isfinite(d))
    a, b = (x.labels[j] for j in divmod(i, x.n))
    raise InputFormatError(f"{path}: the distance between {a!r} and {b!r} is not finite")


def _points_space(t: _Table, path: str, norm: str) -> FiniteMetricSpace:
    if _is_number(t.head[0]):
        return _point_space(_numeric_grid(t, path, points=True), path, norm)
    header = t.head[0].lower() == "label" or len(t.head) < 2 or not _is_number(t.head[1])
    labels = t.first[int(header):]
    if not labels:
        raise InputFormatError(f"{path}: point cloud has a header but no rows")
    if len(t.head) < 2:
        raise InputFormatError(f"{path}: labeled points need at least one coordinate")
    _dedupe_labels(labels, path)
    coords = _numeric_grid(t, path, skip_row0=header, skip_col0=True, points=True)
    return _point_space(coords, path, norm, labels)


def ingest_space(
    path: str,
    fmt: str = "auto",
    norm: str = "euclidean",
    rel_tol: float = REL_TOL,
) -> FiniteMetricSpace:
    """Read a space from a CSV file (matrix or point cloud) or a JSON file.

    Files ending in .json are parsed as the serialized space object;
    anything else goes through CSV detection. fmt forces "matrix" or
    "points" when the heuristic would guess wrong.
    """
    path = os.fspath(path)
    if fmt not in FORMATS:
        raise InputFormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if norm not in POINT_NORMS:
        raise InputFormatError(f"unknown norm {norm!r}; expected one of {POINT_NORMS}")
    if path.endswith(".json"):
        data = read_json(path)
        try:
            return FiniteMetricSpace.from_dict(data)
        except ValueError as exc:  # a metric axiom's error passes unwrapped
            raise InputFormatError(f"{path}: {exc}") from exc
    t = _read_table(path)
    if fmt == "matrix":
        return _matrix_space(t, path, rel_tol)
    if fmt == "points":
        return _points_space(t, path, norm)
    if _is_number(t.head[0]):
        # only a square grid can be a matrix; any other is a point cloud
        grid = _cells(t, points=len(t.first) != len(t.head))
        if not _all_finite(grid):
            raise InputFormatError(
                f"{path}: mixed numeric and non-numeric cells without a label column"
            )
        if _looks_like_matrix(grid):
            return _unlabeled_matrix(grid, rel_tol)
        return _point_space(grid, path, norm)
    if t.head[0].lower() == "label" and len(t.first) > 1 and t.head[1:] == t.first[1:]:
        return _matrix_space(t, path, rel_tol)
    return _points_space(t, path, norm)


def write_matrix_csv(x: FiniteMetricSpace, path: str) -> None:
    """Write a space as a labeled distance matrix; floats use their
    shortest round-trip form, so ingesting the file reproduces x exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", *x.labels])
    for lab, row in zip(x.labels, x._rows()):
        writer.writerow([lab, *map(repr, row)])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


def canonical_json_bytes(obj) -> bytes:
    """Deterministic JSON encoding: sorted keys, two-space indent, trailing
    newline, floats in shortest round-trip form. Infinite and NaN floats
    raise ValueError: JSON has no numbers for them."""
    return (
        json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
    ).encode("utf-8")


def _json_list(items: list[bytes], pad: bytes) -> bytes:
    """A JSON array of encoded items as json.dumps(indent=2) lays it out
    when the line of its opening bracket is indented by pad."""
    if not items:
        return b"[]"
    inner = b"\n" + pad + b"  "
    return b"".join((b"[", inner, (b"," + inner).join(items), b"\n", pad, b"]"))


def _sieve_json(s) -> Iterator[bytes]:
    """The bytes of canonical_json_bytes(s.to_dict()) for a Sieve s, in
    chunks: the base and breakpoints, then one cover a chunk, so the
    document is never held whole.

    Each label is escaped once, by the encoder json.dumps uses under
    ensure_ascii=False, and each block's text is made once, keyed by its
    label tuple: a built sieve shares one tuple across every cover a
    block lives in. Breakpoints are written by float.__repr__, as
    json.dumps writes finite floats. A non-finite breakpoint raises
    ValueError here, before any chunk is made.
    """
    for b in s.breakpoints:
        if not math.isfinite(b):
            raise ValueError(f"Out of range float values are not JSON compliant: {b!r}")
    label = {x: encode_basestring(x).encode("utf-8") for x in s.base}
    head = b"".join((
        b'{\n  "base": ',
        _json_list([label[x] for x in s.base], b"  "),
        b',\n  "breakpoints": ',
        _json_list([repr(float(b)).encode() for b in s.breakpoints], b"  "),
        b',\n  "covers": ',
    ))

    @functools.cache
    def block(blk: tuple[str, ...]) -> bytes:
        return _json_list([label[x] for x in blk], b" " * 6)

    def covers() -> Iterator[bytes]:
        sep = head + b"[\n    "
        for c in s.covers:
            yield sep + _json_list(list(map(block, c.blocks)), b" " * 4)
            sep = b",\n    "
        yield b"\n  ]\n}\n"

    return covers()


def write_json(path: str, obj) -> None:
    with open(path, "wb") as fh:
        fh.write(canonical_json_bytes(obj))


def read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}"
        ) from exc
    except RecursionError as exc:
        raise InputFormatError(f"{path}: JSON nested too deeply to read") from exc


def load_schema(name: str) -> dict:
    """One of the shipped JSON schemas: cover, sieve, or trial_report."""
    from importlib import resources  # no command reads a schema

    ref = resources.files("sievecluster").joinpath(f"schemas/{name}.schema.json")
    return json.loads(ref.read_text(encoding="utf-8"))
