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

All JSON output goes through one canonical writer (sorted keys, two-space
indent, trailing newline, shortest round-trip float form), so equal
objects serialize to byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from importlib import resources

import numpy as np

# metric's functions are looked up on the module at call time, so a
# wrapper installed there later (a profiler, a tracer) sees these calls too
from . import metric
from .errors import InputFormatError
from .metric import REL_TOL, FiniteMetricSpace

POINT_NORMS = ("euclidean", "manhattan", "chebyshev")
FORMATS = ("auto", "matrix", "points")


def _read_rows(path: str) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [
                [cell.strip() for cell in row]
                for row in csv.reader(fh)
                if any(cell.strip() for cell in row)
            ]
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path} is not valid UTF-8 text") from exc
    if not rows:
        raise InputFormatError(f"{path} contains no data rows")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise InputFormatError(
                f"{path}: row {i + 1} has {len(row)} fields, expected {width}"
            )
    return rows


def _as_number(cell: str, where: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise InputFormatError(f"{where}: {cell!r} is not a number") from None
    if not math.isfinite(value):
        raise InputFormatError(f"{where}: {cell!r} is not finite")
    return value


def _is_number(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _float_grid(rows: list[list[str]], skip_col0: bool = False):
    """The cells as a float array, or None when any is not a finite number."""
    try:
        grid = np.array(
            [[float(c) for c in row[int(skip_col0):]] for row in rows],
            dtype=np.float64,
        )
    except ValueError:
        return None
    return grid if np.isfinite(grid).all() else None


def _numeric_grid(rows: list[list[str]], path: str, skip_col0: bool = False):
    grid = _float_grid(rows, skip_col0)
    if grid is None:  # name the first offending cell
        for i, row in enumerate(rows):
            for j, c in enumerate(row[int(skip_col0):]):
                _as_number(c, f"{path}: row {i + 1}, column {j + 1 + skip_col0}")
    return grid


def _looks_like_matrix(grid: np.ndarray) -> bool:
    n, m = grid.shape
    if n != m:
        return False
    tol = REL_TOL * float(np.abs(grid).max())
    return bool(
        (np.abs(np.diagonal(grid)) <= tol).all()
        and (np.abs(grid - grid.T) <= tol).all()
    )


def _unlabeled_matrix(grid: np.ndarray, rel_tol: float) -> FiniteMetricSpace:
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


def _matrix_space(
    rows: list[list[str]], path: str, rel_tol: float
) -> FiniteMetricSpace:
    if _is_number(rows[0][0]):
        grid = _numeric_grid(rows, path)
        n, m = grid.shape
        if n != m:
            raise InputFormatError(
                f"{path}: matrix must be square, got {n} rows x {m} columns"
            )
        return _unlabeled_matrix(grid, rel_tol)
    header = rows[0]
    body = rows[1:]
    if not body:
        raise InputFormatError(f"{path}: matrix has a header but no rows")
    labels = [row[0] for row in body]
    _dedupe_labels(labels, path)
    if header[1:] != labels:
        raise InputFormatError(
            f"{path}: matrix column header {header[1:]} must equal the row "
            f"labels {labels} in the same order"
        )
    grid = _numeric_grid(body, path, skip_col0=True)
    return metric.validate_metric(labels, grid, rel_tol=rel_tol)


def _points_space(
    rows: list[list[str]], path: str, norm: str
) -> FiniteMetricSpace:
    if _is_number(rows[0][0]):
        coords = _numeric_grid(rows, path)
        return metric.space_from_points(coords, metric=norm)
    if rows[0][0].lower() == "label" or len(rows[0]) < 2 or not _is_number(rows[0][1]):
        body = rows[1:]
    else:
        body = rows
    if not body:
        raise InputFormatError(f"{path}: point cloud has a header but no rows")
    if len(body[0]) < 2:
        raise InputFormatError(f"{path}: labeled points need at least one coordinate")
    labels = [row[0] for row in body]
    _dedupe_labels(labels, path)
    coords = _numeric_grid(body, path, skip_col0=True)
    return metric.space_from_points(coords, metric=norm, labels=labels)


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
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(f"{path}: {exc}") from exc
    rows = _read_rows(path)
    if fmt == "matrix":
        return _matrix_space(rows, path, rel_tol)
    if fmt == "points":
        return _points_space(rows, path, norm)
    if _is_number(rows[0][0]):
        grid = _float_grid(rows)
        if grid is None:
            raise InputFormatError(
                f"{path}: mixed numeric and non-numeric cells without a label column"
            )
        if _looks_like_matrix(grid):
            return _unlabeled_matrix(grid, rel_tol)
        return metric.space_from_points(grid, metric=norm)
    if rows[0][0].lower() == "label" and len(rows) > 1:
        header_names = rows[0][1:]
        body_labels = [row[0] for row in rows[1:]]
        if header_names == body_labels:
            return _matrix_space(rows, path, rel_tol)
        return _points_space(rows, path, norm)
    return _points_space(rows, path, norm)


def write_matrix_csv(x: FiniteMetricSpace, path: str) -> None:
    """Write a space as a labeled distance matrix; floats use their
    shortest round-trip form, so ingesting the file reproduces x exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", *x.labels])
    for i, lab in enumerate(x.labels):
        writer.writerow([lab, *[repr(float(v)) for v in x.dist[i]]])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


def canonical_json_bytes(obj) -> bytes:
    """Deterministic JSON encoding: sorted keys, two-space indent, trailing
    newline, floats in shortest round-trip form. Infinite and NaN floats
    raise ValueError: JSON has no numbers for them."""
    return (
        json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
    ).encode("utf-8")


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


def load_schema(name: str) -> dict:
    """One of the shipped JSON schemas: cover, sieve, or trial_report."""
    ref = resources.files("sievecluster").joinpath(f"schemas/{name}.schema.json")
    return json.loads(ref.read_text(encoding="utf-8"))
