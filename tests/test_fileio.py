"""CSV/JSON ingestion, canonical serialization, packaged schemas."""

import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sievecluster import (
    Cover,
    FiniteMetricSpace,
    InputFormatError,
    MethodSpec,
    Sieve,
    build_sieve,
    space_from_points,
    validate_metric,
)
from sievecluster import fileio
from sievecluster.metric import _NUMPY_MIN_POINTS, REL_TOL
from sievecluster.verify import random_metric
from sievecluster.fileio import (
    FORMATS,
    POINT_NORMS,
    canonical_json_bytes,
    ingest_space,
    load_schema,
    read_json,
    write_json,
    write_matrix_csv,
)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_headerless_matrix(tmp_path):
    p = _write(tmp_path, "m.csv", "0,1,2\n1,0,1\n2,1,0\n")
    x = ingest_space(p)
    assert x.n == 3
    assert x.distance(x.labels[0], x.labels[2]) == 2.0


def test_labeled_matrix(tmp_path):
    p = _write(tmp_path, "m.csv", "label,a,b\na,0,1\nb,1,0\n")
    x = ingest_space(p)
    assert x.labels == ("a", "b")
    assert x.distance("a", "b") == 1.0


def test_numeric_points_auto(tmp_path):
    # square but asymmetric, so it cannot be a distance matrix: read as
    # three points in 3-space
    p = _write(tmp_path, "pts.csv", "0,0,0\n1,0,0\n0,2,0\n")
    x = ingest_space(p)
    assert x.n == 3
    assert x.diameter() == pytest.approx(math.sqrt(5))


def test_nonsquare_numeric_is_points(tmp_path):
    p = _write(tmp_path, "pts.csv", "0,0\n3,4\n")
    x = ingest_space(p)
    assert x.distance(x.labels[0], x.labels[1]) == 5.0


def test_labeled_points(tmp_path):
    p = _write(tmp_path, "pts.csv", "label,x,y\np,0,0\nq,3,4\n")
    x = ingest_space(p)
    assert x.labels == ("p", "q")
    assert x.distance("p", "q") == 5.0


def test_point_norms(tmp_path):
    p = _write(tmp_path, "pts.csv", "0,0\n3,4\n")
    assert ingest_space(p, norm="euclidean").diameter() == 5.0
    assert ingest_space(p, norm="manhattan").diameter() == 7.0
    assert ingest_space(p, norm="chebyshev").diameter() == 4.0
    assert set(POINT_NORMS) == {"euclidean", "manhattan", "chebyshev"}
    assert set(FORMATS) == {"auto", "matrix", "points"}


def test_format_override(tmp_path):
    # symmetric square with zero diagonal would auto-read as a matrix;
    # forcing points mode treats rows as coordinates instead
    p = _write(tmp_path, "amb.csv", "0,1\n1,0\n")
    as_matrix = ingest_space(p)
    as_points = ingest_space(p, fmt="points")
    assert as_matrix.diameter() == 1.0
    assert as_points.diameter() == pytest.approx(math.sqrt(2))


def test_json_ingestion(tmp_path):
    payload = {"points": ["a", "b"], "distances": [[0.0, 2.0], [2.0, 0.0]]}
    p = _write(tmp_path, "space.json", json.dumps(payload))
    x = ingest_space(p)
    assert x.labels == ("a", "b") and x.diameter() == 2.0


def test_ragged_rows_error_names_row(tmp_path):
    p = _write(tmp_path, "bad.csv", "0,1,2\n1,0\n2,1,0\n")
    with pytest.raises(InputFormatError) as info:
        ingest_space(p)
    assert "row 2" in str(info.value)


def test_non_finite_rejected(tmp_path):
    p = _write(tmp_path, "bad.csv", "0,nan\nnan,0\n")
    with pytest.raises(InputFormatError):
        ingest_space(p)


@pytest.mark.parametrize("cell", ["x", "inf", "nan"])
def test_bad_cell_messages(tmp_path, cell):
    p = _write(tmp_path, "bad.csv", f"0,1,2\n1,0,{cell}\n2,oops,0\n")
    with pytest.raises(InputFormatError, match="mixed numeric and non-numeric"):
        ingest_space(p)
    # forced formats name the first offending cell in row-major order
    reason = "is not a number" if cell == "x" else "is not finite"
    for fmt in ("matrix", "points"):
        with pytest.raises(InputFormatError) as info:
            ingest_space(p, fmt=fmt)
        assert str(info.value) == f"{p}: row 2, column 3: {cell!r} {reason}"


def test_auto_detection_symmetry_tolerance(tmp_path):
    # asymmetry and diagonal within REL_TOL of the largest entry still read
    # as a matrix; beyond it the rows are points
    near = _write(tmp_path, "near.csv", "0,1.0000000001,2\n1,0,1\n2,1,0\n")
    far = _write(tmp_path, "far.csv", "0,1.00000001,2\n1,0,1\n2,1,0\n")
    assert ingest_space(near) == ingest_space(near, fmt="matrix")
    assert ingest_space(far) == ingest_space(far, fmt="points")
    off_diagonal = _write(tmp_path, "diag.csv", "1e-8,1,2\n1,0,1\n2,1,0\n")
    assert ingest_space(off_diagonal) == ingest_space(off_diagonal, fmt="points")


def test_header_label_mismatch(tmp_path):
    p = _write(tmp_path, "bad.csv", "label,a,b\na,0,1\nc,1,0\n")
    with pytest.raises(InputFormatError):
        ingest_space(p, fmt="matrix")
    # under auto detection the mismatched header demotes the file to
    # labeled points
    assert ingest_space(p).labels == ("a", "c")


def test_empty_file_rejected(tmp_path):
    p = _write(tmp_path, "empty.csv", "\n\n")
    with pytest.raises(InputFormatError):
        ingest_space(p)


def test_matrix_mode_on_nonsquare_rejected(tmp_path):
    p = _write(tmp_path, "bad.csv", "0,1\n1,0\n2,2\n")
    with pytest.raises(InputFormatError):
        ingest_space(p, fmt="matrix")


def test_labeled_points_need_a_coordinate(tmp_path):
    p = _write(tmp_path, "bad.csv", "label\np\nq\n")
    with pytest.raises(InputFormatError):
        ingest_space(p)


def test_matrix_csv_roundtrip(tmp_path):
    x = space_from_points(
        [(0.0, 0.0), (0.5, 1.25), (2.0, 0.0)], labels=["a", "b", "c"]
    )
    p = tmp_path / "out.csv"
    write_matrix_csv(x, p)
    again = ingest_space(p)
    assert again == x  # exact: repr floats survive the round trip


def test_canonical_json_is_stable():
    blob = canonical_json_bytes({"b": 1.5, "a": [1, 2]})
    assert blob == canonical_json_bytes({"a": [1, 2], "b": 1.5})
    assert blob.endswith(b"\n")
    assert blob.index(b'"a"') < blob.index(b'"b"')


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_canonical_json_refuses_non_finite_floats(value):
    # json.dumps would write Infinity or NaN, which no JSON parser must accept
    with pytest.raises(ValueError):
        canonical_json_bytes({"delta": value})


def test_write_and_read_json(tmp_path):
    p = tmp_path / "data.json"
    write_json(p, {"x": [1.0, 2.0]})
    assert read_json(p) == {"x": [1.0, 2.0]}
    bad = _write(tmp_path, "bad.json", '{"x": [1,')
    with pytest.raises(InputFormatError) as info:
        read_json(bad)
    assert "line" in str(info.value)


def test_packaged_schemas_load():
    for name in ("cover", "sieve", "trial_report"):
        schema = load_schema(name)
        assert schema["$schema"].startswith("https://json-schema.org/")
        assert "properties" in schema


def test_roundtrip_preserves_equality_through_dict(tmp_path):
    x = FiniteMetricSpace(["u", "v"], [[0.0, 1.0], [1.0, 0.0]])
    p = tmp_path / "s.json"
    write_json(p, x.to_dict())
    assert FiniteMetricSpace.from_dict(read_json(p)) == x


# -- the streaming reader against the reader it replaced --------------------


def _rows_oracle(path):
    """Every non-blank row with its cells stripped, read whole: the table of
    strings that ingest parsed before it streamed."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [
                [cell.strip() for cell in row]
                for row in csv.reader(fh)
                if any(cell.strip() for cell in row)
            ]
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path} is not valid UTF-8 text") from exc
    if not rows:
        raise InputFormatError(f"{path} contains no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise InputFormatError(
                f"{path}: row {i + 1} has {len(row)} fields, expected {len(rows[0])}"
            )
    return rows


def _finite_oracle(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _grid_oracle(rows, path=None, skip_col0=False):
    """The cells as floats. With a path, the first cell that is not a finite
    number raises; without one, such a cell gives None."""
    try:
        grid = np.array([[float(c) for c in row[int(skip_col0):]] for row in rows])
        if np.isfinite(grid).all():
            return grid
    except ValueError:
        pass
    if path is None:
        return None
    for i, row in enumerate(rows):
        for j, c in enumerate(row[int(skip_col0):]):
            fileio._as_number(c, f"{path}: row {i + 1}, column {j + 1 + skip_col0}")


def _matrix_oracle(rows, path):
    if _finite_oracle(rows[0][0]):
        grid = _grid_oracle(rows, path)
        if grid.shape[0] != grid.shape[1]:
            raise InputFormatError(
                f"{path}: matrix must be square, got {grid.shape[0]} rows x "
                f"{grid.shape[1]} columns"
            )
        return fileio._unlabeled_matrix(grid, REL_TOL)
    body = rows[1:]
    if not body:
        raise InputFormatError(f"{path}: matrix has a header but no rows")
    labels = [row[0] for row in body]
    fileio._dedupe_labels(labels, path)
    if rows[0][1:] != labels:
        raise InputFormatError(
            f"{path}: matrix column header {rows[0][1:]} must equal the row "
            f"labels {labels} in the same order"
        )
    return validate_metric(labels, _grid_oracle(body, path, skip_col0=True))


def _points_oracle(rows, path, norm):
    if _finite_oracle(rows[0][0]):
        return space_from_points(_grid_oracle(rows, path), metric=norm)
    head = rows[0]
    if head[0].lower() == "label" or len(head) < 2 or not _finite_oracle(head[1]):
        body = rows[1:]
    else:
        body = rows
    if not body:
        raise InputFormatError(f"{path}: point cloud has a header but no rows")
    if len(body[0]) < 2:
        raise InputFormatError(f"{path}: labeled points need at least one coordinate")
    labels = [row[0] for row in body]
    fileio._dedupe_labels(labels, path)
    coords = _grid_oracle(body, path, skip_col0=True)
    return space_from_points(coords, metric=norm, labels=labels)


def _ingest_oracle(path, fmt, norm):
    rows = _rows_oracle(path)
    if fmt == "matrix":
        return _matrix_oracle(rows, path)
    if fmt == "points":
        return _points_oracle(rows, path, norm)
    if _finite_oracle(rows[0][0]):
        grid = _grid_oracle(rows)
        if grid is None:
            raise InputFormatError(
                f"{path}: mixed numeric and non-numeric cells without a label column"
            )
        if fileio._looks_like_matrix(grid):
            return fileio._unlabeled_matrix(grid, REL_TOL)
        return space_from_points(grid, metric=norm)
    if rows[0][0].lower() == "label" and len(rows) > 1:
        if rows[0][1:] == [row[0] for row in rows[1:]]:
            return _matrix_oracle(rows, path)
    return _points_oracle(rows, path, norm)


def _outcome(read, *args):
    """A space as its labels and distance bytes, or an error as its type
    and message."""
    try:
        x = read(*args)
    except Exception as exc:  # the two readers must fail alike, whatever the error
        return type(exc).__name__, str(exc)
    return x.labels, x.dist.tobytes()


# padding that str.strip() removes; float() itself refuses "\x1c".."\x1f"
_PAD = st.sampled_from(["", " ", "  ", "\t", "\xa0", "\x1c"])
_BAD_CELLS = st.sampled_from(["x", "nan", "NaN", "inf", "-Infinity", "1e400", "", "label"])
_LABELS = st.sampled_from(["a", "b", "c,d", "label", "e f", '"q"', "1", "2.5"])


@st.composite
def csv_documents(draw):
    """The text of a CSV file near the shapes ingest accepts: a labeled or
    headerless matrix or point cloud, then a few random edits."""
    n = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 3))
    pts = np.array(
        draw(st.lists(st.lists(st.sampled_from([-1.5, 0.0, 0.25, 1.0, 3.0]),
                               min_size=dim, max_size=dim), min_size=n, max_size=n))
    )
    labels = [f"p{i}" for i in range(n)]
    kind = draw(st.sampled_from(["labeled matrix", "labeled points",
                                 "points without header", "matrix", "points"]))
    if kind.endswith("matrix"):
        body = [[repr(v) for v in row] for row in space_from_points(pts).dist.tolist()]
    else:
        body = [[repr(v) for v in row] for row in pts.tolist()]
    if kind.startswith("labeled"):
        rows = [["label", *(labels if kind == "labeled matrix" else
                            [f"x{j}" for j in range(dim)])]]
        rows += [[lab, *row] for lab, row in zip(labels, body)]
    elif kind == "points without header":
        rows = [[lab, *row] for lab, row in zip(labels, body)]
    else:
        rows = body
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        edit = draw(st.sampled_from(["bad cell", "label", "ragged", "pad"]))
        if edit == "bad cell":
            rows[i][j] = draw(_BAD_CELLS)
        elif edit == "label":
            rows[i][0 if i else j] = draw(_LABELS | st.sampled_from(labels))
        elif edit == "ragged":
            rows[i] = rows[i][:-1] if draw(st.booleans()) else [*rows[i], "0"]
        else:
            rows[i][j] = draw(_PAD) + rows[i][j] + draw(_PAD)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n",
                        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    for row in rows:
        for _ in range(draw(st.integers(0, 1))):
            buf.write(draw(st.sampled_from(["\n", "  \n", " , \t\n"])))
        writer.writerow(row)
    return buf.getvalue()


@given(
    text=csv_documents(),
    fmt=st.sampled_from(FORMATS),
    norm=st.sampled_from(POINT_NORMS),
)
@settings(max_examples=400)
def test_streaming_reader_matches_reading_whole(tmp_path_factory, text, fmt, norm):
    path = str(tmp_path_factory.getbasetemp() / "doc.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    expected = _outcome(_ingest_oracle, path, fmt, norm)
    assert _outcome(ingest_space, path, fmt, norm) == expected


def test_streaming_reader_error_precedence(tmp_path):
    # a decoding error anywhere beats a width error, and a width error
    # beats a bad cell in an earlier row
    p = tmp_path / "bad.csv"
    p.write_bytes(b"0,1\n1,x\n2\n" + b"3,4\n" * 5000 + b"\xff,0\n")
    with pytest.raises(InputFormatError, match="is not valid UTF-8 text"):
        ingest_space(p)
    p.write_bytes(b"0,1\n1,x\n2\n")
    with pytest.raises(InputFormatError, match="row 3 has 1 fields, expected 2"):
        ingest_space(p)


def test_overlong_cell_is_an_input_error(tmp_path):
    p = tmp_path / "big.csv"
    p.write_text("label,a,b\na,0," + "1" * 200_000 + "\nb,1,0\n")
    with pytest.raises(InputFormatError, match="field larger than field limit"):
        ingest_space(p)


def test_ingest_peak_memory(tmp_path):
    # reading every cell into a stripped string, then a float, peaked at
    # several times the matrix; streaming keeps one grid of floats beside
    # the copies that validation makes
    n = 400
    x = space_from_points(np.random.default_rng(0).random((n, 2)))
    p = tmp_path / "m.csv"
    write_matrix_csv(x, p)
    tracemalloc.start()
    try:
        ingest_space(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * n * 8 + 2**20


@pytest.mark.parametrize("n", [2, _NUMPY_MIN_POINTS])
@pytest.mark.parametrize("labeled", [True, False])
@pytest.mark.parametrize("fmt", ["auto", "points"])
def test_points_whose_distance_overflows_are_refused(tmp_path, n, labeled, fmt):
    # each coordinate is finite, but 1e308 - (-1e308) is not
    coords = [1e308, -1e308] + [float(i) for i in range(n - 2)]
    lines = [f"p{i:03d},{c!r}" if labeled else f"{c!r},0" for i, c in enumerate(coords)]
    p = _write(tmp_path, "far.csv", "\n".join(lines) + "\n")
    pair = "'p000' and 'p001'" if labeled else "'p0+' and 'p0*1'"
    with pytest.raises(InputFormatError, match=f"far.csv: the distance between {pair} is not finite"):
        ingest_space(p, fmt=fmt)


# -- the streamed sieve writer against canonical_json_bytes -----------------


def _streamed(s) -> bytes:
    return b"".join(fileio._sieve_json(s))


# labels that need escaping, in both encoders' sense, mixed with any text
_ODD_LABELS = st.text(
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "é", "€", "😀", "a"])
    | st.characters(blacklist_categories=("Cs",)),
    max_size=4,
)
# breakpoints after the first, which is 0.0 or -0.0
_LATER_BREAKPOINTS = st.sampled_from([5e-324, 1e-300, 0.1, 1.0, 2.0, 3.0, 1e16, 1e22]) | st.floats(
    min_value=5e-324, allow_infinity=False
)


@st.composite
def hand_built_sieves(draw):
    """Sieves of random covers, nested blocks allowed, on bases of odd
    labels with breakpoints that json.dumps writes in each float form."""
    base = sorted(draw(st.lists(_ODD_LABELS, min_size=1, max_size=4, unique=True)))
    n = len(base)
    covers = []
    for _ in range(draw(st.integers(1, 5))):
        masks = draw(st.lists(st.integers(1, 2**n - 1), max_size=3))
        singles = draw(st.sets(st.integers(0, n - 1)))
        blocks = [[x for i, x in enumerate(base) if m >> i & 1] for m in masks]
        blocks += [[x] for i, x in enumerate(base) if i in singles or not any(m >> i & 1 for m in masks)]
        cover = Cover(base, blocks)
        if not covers or cover != covers[-1]:
            covers.append(cover)
    later = sorted(draw(st.sets(_LATER_BREAKPOINTS, min_size=len(covers) - 1, max_size=len(covers) - 1)))
    return Sieve(base, [draw(st.sampled_from([0.0, -0.0])), *later], covers)


@given(hand_built_sieves())
@settings(max_examples=300)
def test_sieve_writer_matches_canonical_json_on_hand_built_sieves(s):
    assert _streamed(s) == canonical_json_bytes(s.to_dict())


@pytest.mark.parametrize("label", ["a", '"', "\\", "\x00", "é", "😀"])
def test_sieve_writer_on_one_point_bases(label):
    s = Sieve([label], [0.0], [Cover([label], [[label]])])
    assert _streamed(s) == canonical_json_bytes(s.to_dict())


def test_sieve_writer_on_an_empty_base():
    s = Sieve([], [0.0], [Cover([], [])])
    assert _streamed(s) == canonical_json_bytes(s.to_dict())


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_sieve_writer_refuses_non_finite_breakpoints_before_any_chunk(value):
    base = ["a", "b"]
    covers = [Cover(base, [["a"], ["b"]]), Cover(base, [base])]
    s = Sieve(base, [0.0, 1.0], covers)
    s.breakpoints = (0.0, value)  # NaN would fail the constructor's order check
    with pytest.raises(ValueError, match="not JSON compliant"):
        canonical_json_bytes(s.to_dict())
    with pytest.raises(ValueError, match="not JSON compliant"):
        fileio._sieve_json(s)  # eagerly: the caller has opened nothing yet


def test_sieve_writer_peak_memory():
    # to_dict plus canonical_json_bytes peaked at 34.0 MB here, about 6.7
    # times the 5.06 MB document: the dict, the string and its bytes; the
    # writer holds one cover's text and each distinct block's
    s = build_sieve(random_metric(40, 1), MethodSpec(family="ml"))

    class Sink:
        size = 0

        def write(self, chunk):
            self.size += len(chunk)

    sink = Sink()
    tracemalloc.start()
    try:
        for chunk in fileio._sieve_json(s):
            sink.write(chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 5_000_000
    assert peak <= sink.size / 4
