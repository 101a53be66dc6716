"""Metric validation, constructions, and non-expansive maps."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sievecluster import (
    AsymmetricMatrix,
    Cover,
    DuplicateLabel,
    FiniteMetricSpace,
    Graph,
    MetricMap,
    NegativeDistance,
    NonzeroDiagonal,
    Relation,
    TriangleViolation,
    metric_closure,
    path_space,
    space_from_points,
    validate_metric,
)
from sievecluster import metric
from sievecluster.errors import InvalidArgument
from sievecluster.metric import _min_plus


def test_labels_are_sorted_and_matrix_permuted():
    x = FiniteMetricSpace(["b", "a"], [[0, 3], [3, 0]])
    assert x.labels == ("a", "b")
    assert x.distance("a", "b") == 3.0


def test_equal_spaces_regardless_of_input_order():
    a = FiniteMetricSpace(["a", "b", "c"], [[0, 1, 5], [1, 0, 3], [5, 3, 0]])
    b = FiniteMetricSpace(["c", "a", "b"], [[0, 5, 3], [5, 0, 1], [3, 1, 0]])
    assert a == b
    assert hash(a) == hash(b)
    assert b.distance("b", "c") == 3.0


def test_duplicate_labels_rejected():
    # one label rule for a space, a graph, a cover and a relation
    with pytest.raises(DuplicateLabel, match="^label 'a' appears more than once$"):
        FiniteMetricSpace(["a", "a"], [[0, 1], [1, 0]])
    for build in (
        lambda: Graph(["b", "a", "a"]),
        lambda: Cover(["b", "a", "a"], [["a", "b"]]),
        lambda: Relation(["b", "a", "a"], []),
    ):
        with pytest.raises(DuplicateLabel, match="^label 'a' appears more than once$"):
            build()


def test_validate_rejects_asymmetry_beyond_tolerance():
    with pytest.raises(AsymmetricMatrix):
        validate_metric(["a", "b"], [[0, 1], [2, 0]])


def test_validate_symmetrizes_within_tolerance():
    eps = 1e-13
    x = validate_metric(["a", "b"], [[0, 1], [1 + eps, 0]])
    assert x.distance("a", "b") == x.distance("b", "a")


def test_validate_rejects_negative_and_clamps_tiny():
    with pytest.raises(NegativeDistance):
        validate_metric(["a", "b"], [[0, -1], [-1, 0]])
    x = validate_metric(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
    assert x.distance("a", "b") == 1.0


def test_validate_rejects_nonzero_diagonal():
    with pytest.raises(NonzeroDiagonal):
        validate_metric(["a", "b"], [[0.5, 1], [1, 0]])


def test_validate_reports_triangle_triple():
    with pytest.raises(TriangleViolation) as exc:
        validate_metric(["a", "b", "c"], [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    a, k, c = exc.value.triple
    assert {a, c} == {"a", "c"} and k == "b"
    assert exc.value.excess == pytest.approx(3.0)


def _uniform_700(fill, bad):
    """A 700-point matrix of ``fill`` with the symmetric entries ``bad``."""
    d = np.full((700, 700), fill)
    np.fill_diagonal(d, 0.0)
    for (i, j), v in bad.items():
        d[i, j] = d[j, i] = v
    return d


def test_sampled_triangle_check_reports_triple():
    # 700 points: the check must stay exact at this size, since a sample of
    # triples would likely miss a lone bad triple such as (3, 7, 5)
    labels = [f"p{i:03d}" for i in range(700)]
    with pytest.raises(TriangleViolation) as exc:
        validate_metric(labels, _uniform_700(1.0, {(0, 1): 2.5}))
    a, k, c = exc.value.triple
    assert {a, c} == {"p000", "p001"} and k not in {a, c}
    assert exc.value.excess == pytest.approx(0.5)
    for k in (7, 699):  # the only short cut is through point k
        lone = _uniform_700(2.0, {(3, k): 1.0, (k, 5): 1.0, (3, 5): 2.5})
        with pytest.raises(TriangleViolation) as exc:
            validate_metric(labels, lone)
        assert exc.value.triple == ("p003", labels[k], "p005")
        assert exc.value.excess == pytest.approx(0.5)


def _first_bad_triple(d, tol):
    """(i, k, j) for the first pair (i, j) in row-major order with
    d[i, j] > d[i, k] + d[k, j] + tol, k the cheapest such point, or None:
    a scan of every triple, one row of them at a time."""
    for i in range(len(d)):
        via = d[i][:, None] + d  # via[k, j] = d[i, k] + d[k, j]
        bad = np.flatnonzero(d[i] > via.min(axis=0) + tol)
        if bad.size:
            j = int(bad[0])
            return i, int(np.argmin(via[:, j])), j
    return None


@pytest.mark.parametrize("tile_entries", [None, 4096, 1])
@pytest.mark.parametrize(
    "n, planted",
    [
        (200, []),
        (200, [(150, 199)]),
        (300, [(260, 299), (120, 7)]),
        (300, [(17, 205), (205, 17), (3, 250)]),
        (250, [(249, 100), (248, 249)]),
    ],
)
def test_triangle_check_across_row_tiles_matches_triple_scan(
    monkeypatch, tile_entries, n, planted
):
    # a 3-D point cloud with some pairs pushed apart; the check runs in its
    # default row tiles (one or two here), in tiles of 13-20 rows, and one
    # row at a time
    if tile_entries is not None:
        monkeypatch.setattr(metric, "_TILE_ENTRIES", tile_entries)
    pts = np.random.default_rng(n + len(planted)).random((n, 3))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    for i, j in planted:
        d[i, j] = d[j, i] = d[i, j] + 1.0
    labels = [f"p{i:03d}" for i in range(n)]
    tol = 1e-9 * float(d.max())
    first = _first_bad_triple(d, tol)
    if first is None:
        assert not planted
        assert validate_metric(labels, d).n == n
        return
    with pytest.raises(TriangleViolation) as exc:
        validate_metric(labels, d)
    i, k, j = first
    assert exc.value.triple == (labels[i], labels[k], labels[j])
    assert exc.value.excess == d[i, j] - (d[i, k] + d[k, j])


def _brute_violations(d, tol):
    n = len(d)
    return [
        (i, k, j)
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if d[i, j] > d[i, k] + d[k, j] + tol
    ]


@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=7),
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 8)), max_size=3
    ),
)
def test_triangle_check_matches_brute_force(points, bumps):
    # manhattan distances between lattice points, then planted violations:
    # some pairs pushed farther apart
    pts = np.array(points, dtype=np.float64)
    d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    n = len(d)
    for i, j, extra in bumps:
        i, j = i % n, j % n
        if i != j:
            d[i, j] = d[j, i] = d[i, j] + extra
    labels = [f"p{i}" for i in range(n)]
    tol = 1e-9 * float(d.max())
    bad = _brute_violations(d, tol)
    if not bad:
        assert validate_metric(labels, d).n == n
        return
    with pytest.raises(TriangleViolation) as exc:
        validate_metric(labels, d)
    i, k, j = (int(lab[1:]) for lab in exc.value.triple)
    assert (i, j) == bad[0][::2]  # first bad pair in row-major order
    assert exc.value.excess == d[i, j] - (d[i, k] + d[k, j])
    assert exc.value.excess > tol


def test_zero_distance_between_distinct_points_is_legal():
    x = validate_metric(["a", "b"], [[0, 0], [0, 0]])
    assert x.distance("a", "b") == 0.0


def test_space_from_points_norms():
    pts = [(0.0, 0.0), (3.0, 4.0)]
    assert space_from_points(pts, "euclidean").distance("p0", "p1") == 5.0
    assert space_from_points(pts, "manhattan").distance("p0", "p1") == 7.0
    assert space_from_points(pts, "chebyshev").distance("p0", "p1") == 4.0
    with pytest.raises(ValueError):
        space_from_points(pts, "cosine")
    # a coordinate that is no finite number is refused before numpy forms
    # inf - inf, which would leak a RuntimeWarning and NaN distances
    for bad in (math.nan, math.inf, -math.inf):
        for cloud in ([(0.0, 0.0), (bad, 1.0)], np.array([(0.0, 0.0), (bad, 1.0)])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidArgument, match="^point coordinates must be finite numbers$"):
                    space_from_points(cloud)


def _full_broadcast_distances(pts: np.ndarray, norm: str) -> np.ndarray:
    """The point distances as one n x n x dim broadcast, averaged with
    their transpose: the reference for the row blocks of space_from_points."""
    diff = pts[:, None, :] - pts[None, :, :]
    if norm == "euclidean":
        d = np.sqrt((diff * diff).sum(axis=2))
    elif norm == "manhattan":
        d = np.abs(diff).sum(axis=2)
    else:
        d = np.abs(diff).max(axis=2)
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return d


@pytest.mark.parametrize("norm", ["euclidean", "manhattan", "chebyshev"])
@pytest.mark.parametrize("dim", [1, 2, 3, 8, 9, 12])
def test_space_from_points_matches_full_broadcast(norm, dim):
    # dim >= 9 sums its squares pairwise in numpy; the blocks must keep that
    rng = np.random.default_rng(dim)
    for n in (1, 20, 300):
        step = metric._TILE_ENTRIES // (n * dim)
        assert n == 1 or (n == 20) == (step >= n)
        assert n != 300 or (step < n and n % step)  # several blocks, ragged last
        pts = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4, size=(n, dim))
        pts[n // 2] = pts[0]  # a zero distance between distinct points
        got = space_from_points(pts, norm).dist
        assert got.tobytes() == _full_broadcast_distances(pts, norm).tobytes()


def test_space_from_points_averages_like_full_broadcast_near_overflow():
    # a distance above half the largest float stays finite when averaged
    # with its transpose, and one above the largest float is inf; in one
    # dimension every norm is the absolute difference
    pts = np.array([[0.0], [1.5e308], [-1e308], [1.0]])
    with np.errstate(over="ignore"):
        want = np.abs(pts - pts.T)
    for norm in ("euclidean", "manhattan", "chebyshev"):
        got = space_from_points(pts, norm).dist
        assert got.tobytes() == want.tobytes()
    assert got[0, 1] == 1.5e308 and math.isinf(got[1, 2])


_COORDINATES = st.one_of(
    st.floats(-1e308, 1e308, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324, 1.0]),
)


@given(
    norm=st.sampled_from(["euclidean", "manhattan", "chebyshev"]),
    pts=st.integers(1, 19).flatmap(
        lambda dim: st.lists(st.lists(_COORDINATES, min_size=dim, max_size=dim), min_size=1, max_size=10)
    ),
)
@settings(max_examples=300)
def test_point_buffer_is_exactly_symmetric(norm, pts):
    # entry (j, i) is computed from the negated differences of entry (i, j);
    # from 8 coordinates numpy sums them pairwise, a path no Python kernel
    # is compared with, so the bytes are compared here
    n = len(pts)
    flat = metric._point_buffer(np, np.array(pts), metric._POINT_NORMS[norm][1])
    d = np.frombuffer(flat).reshape(n, n)
    assert d.tobytes() == d.T.copy().tobytes()
    assert not np.signbit(d).any()


def test_space_from_points_peak_memory():
    # the seed's full broadcast peaked at 30.9 MB here: two n x n x 2
    # arrays beside the matrix and its copy
    n = 900
    pts = np.random.default_rng(0).random((n, 2))
    tracemalloc.start()
    try:
        space_from_points(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * n * 8


def test_path_space_distances():
    lam = path_space(3, 0.5)
    assert lam.n == 4
    assert lam.distance(lam.labels[0], lam.labels[3]) == pytest.approx(1.5)
    assert lam.distance(lam.labels[1], lam.labels[2]) == pytest.approx(0.5)
    for step in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            path_space(1, step)


def test_metric_closure_shortcuts_long_edges():
    x = metric_closure(["a", "b", "c"], [[0, 1, 9], [1, 0, 1], [9, 1, 0]])
    assert x.distance("a", "c") == 2.0


def test_restrict_keeps_submatrix(x3):
    sub = x3.restrict(["a", "c"])
    assert sub.labels == ("a", "c")
    assert sub.distance("a", "c") == 2.0
    with pytest.raises(KeyError):
        x3.restrict(["a", "z"])


def test_roundtrip_dict(x3):
    assert FiniteMetricSpace.from_dict(x3.to_dict()) == x3


@pytest.mark.parametrize("points", [[[1], {"a": 2}], [1, 1.0], "ab", None])
def test_from_dict_requires_string_labels(points):
    # labels used to be made with str(): "[1]" and "{'a': 2}", or "1" and "1.0"
    data = {"points": points, "distances": [[0, 1], [1, 0]]}
    with pytest.raises(InvalidArgument, match="^'points' must be a list of strings$"):
        FiniteMetricSpace.from_dict(data)


def test_pairwise_distances_and_diameter(x3):
    assert x3.pairwise_distances() == [1.0, 2.0]
    assert x3.diameter() == 2.0


@given(
    st.integers(2, 6),
    st.lists(st.floats(0.1, 4.0), min_size=1, max_size=15),
)
def test_metric_closure_output_is_a_metric(n, entries):
    d = np.zeros((n, n))
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = entries[idx % len(entries)]
            idx += 1
    x = metric_closure([f"p{i}" for i in range(n)], d)
    m = x.dist
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert m[i, j] <= m[i, k] + m[k, j] + 1e-9


def _matrices(rows, cols, values):
    return st.lists(
        st.lists(values, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda m: np.array(m, dtype=np.float64))


_ENTRIES = st.one_of(st.floats(0.0, 10.0), st.just(math.inf))


@given(st.data(), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
def test_min_plus_matches_broadcast_product(data, m, n, p):
    out = data.draw(_matrices(m, p, _ENTRIES))
    left = data.draw(_matrices(m, n, _ENTRIES))
    right = data.draw(_matrices(n, p, _ENTRIES))
    expected = np.minimum(out, (left[:, :, None] + right[None]).min(axis=1))
    _min_plus(out, left, right)
    assert np.array_equal(out, expected)


@given(st.data(), st.integers(1, 6))
def test_min_plus_aliased_reaches_shortest_paths(data, n):
    # integer weights keep every path sum exact, so any order of relaxation
    # ends at the same fixed point
    d = data.draw(_matrices(n, n, st.one_of(st.integers(0, 9), st.just(math.inf))))
    np.fill_diagonal(d, 0.0)
    expected = d.copy()
    while True:
        nxt = np.minimum(expected, (expected[:, :, None] + expected[None]).min(axis=1))
        if np.array_equal(nxt, expected):
            break
        expected = nxt
    _min_plus(d, d, d)
    assert np.array_equal(d, expected)


def test_metric_map_validates_totality_and_codomain(x3):
    y = FiniteMetricSpace(["u"], [[0.0]])
    with pytest.raises(ValueError):
        MetricMap(x3, y, {"a": "u", "b": "u"})  # c missing
    with pytest.raises(ValueError):
        MetricMap(x3, y, {"a": "u", "b": "u", "c": "w"})  # w not in target


def test_metric_map_identity_compose_injective(x3):
    ident = MetricMap.identity(x3)
    assert ident.is_injective()
    assert ident.is_nonexpansive()
    y = FiniteMetricSpace(["u"], [[0.0]])
    const = MetricMap(x3, y, {"a": "u", "b": "u", "c": "u"})
    assert not const.is_injective()
    assert const.is_nonexpansive()
    comp = const.compose(ident)
    assert comp("a") == "u"
    assert comp.source is x3 and comp.target is y


def test_nonexpansive_detects_expansion(x3):
    stretched = FiniteMetricSpace(
        ["a", "b", "c"], [[0, 3, 6], [3, 0, 3], [6, 3, 0]]
    )
    f = MetricMap(x3, stretched, {"a": "a", "b": "b", "c": "c"})
    assert not f.is_nonexpansive()
    g = MetricMap(stretched, x3, {"a": "a", "b": "b", "c": "c"})
    assert g.is_nonexpansive()


def test_pullback_metric(x3):
    y = FiniteMetricSpace(["u", "v"], [[0, 1], [1, 0]])
    f = MetricMap(x3, y, {"a": "u", "b": "u", "c": "v"})
    pulled = f.pullback_matrix()
    assert pulled[x3.index("a"), x3.index("b")] == 0.0
    assert pulled[x3.index("a"), x3.index("c")] == 1.0
    back = f.pullback_metric()
    assert back.labels == x3.labels
    assert back._rows() == [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]


def test_metric_map_image_equality_repr_and_mismatched_compose(x3):
    y = FiniteMetricSpace(["u", "v"], [[0, 1], [1, 0]])
    f = MetricMap(x3, y, {"a": "u", "b": "u", "c": "v"})
    assert f.image() == {"u", "v"}
    assert f == MetricMap(x3, y, {"c": "v", "b": "u", "a": "u"})
    assert f != MetricMap(x3, y, {"a": "u", "b": "v", "c": "v"})
    assert f != MetricMap.identity(x3)
    assert f != "f"
    assert repr(f) == "MetricMap(3 -> 2 points)"
    with pytest.raises(ValueError, match="composition endpoints do not match"):
        f.compose(f)


def test_one_point_space():
    x = FiniteMetricSpace(["only"], [[0.0]])
    assert x.diameter() == 0.0
    assert x.pairwise_distances() == []


def test_nonfinite_entries_rejected():
    with pytest.raises(ValueError):
        validate_metric(["a", "b"], [[0, math.inf], [math.inf, 0]])
