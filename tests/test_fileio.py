"""CSV/JSON ingestion, canonical serialization, packaged schemas."""

import json
import math

import pytest

from sievecluster import FiniteMetricSpace, InputFormatError, space_from_points
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
