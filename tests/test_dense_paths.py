"""The two paths of every dense kernel give the same bytes.

Below ``metric._NUMPY_MIN_POINTS`` points a kernel runs Python loops over
the space's stdlib buffer; at or above it, numpy on a view of the same
buffer. Each test runs a kernel with the constant raised out of reach
(always Python) and at zero (always numpy), and requires the same result
bytes, or the same error type and message. A few cases also cross the
real constant. Two kernels have one path, checked against a numpy
oracle instead: the sieve builder's threshold batches, a Python sort,
against a numpy argsort, and the budgeted step relation of family ``l``,
a relaxation from each point, against min-plus matrix powers
(``oracles.min_plus_step_relation``), also at 130 points.
"""

import gc
import math
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sievecluster import (
    FiniteMetricSpace,
    Graph,
    MethodSpec,
    build_sieve,
    ingest_space,
    metric_closure,
    path_space,
    space_from_graph,
    space_from_points,
    validate_metric,
)
from sievecluster import fileio, functors, metric, sieves, verify
from sievecluster.fileio import FORMATS, POINT_NORMS
from oracles import min_plus_step_relation
from test_fileio import _outcome, csv_documents

PYTHON, NUMPY = 10**9, 0
NORMS = ("euclidean", "manhattan", "chebyshev")


def _result(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # both paths must fail alike, whatever the error
        return type(exc).__name__, str(exc)


def both_paths(fn):
    """fn() on the Python path and on the numpy path."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        for limit in (PYTHON, NUMPY):
            mp.setattr(metric, "_NUMPY_MIN_POINTS", limit)
            out.append(_result(fn))
    return out


def space_bytes(x):
    return x.labels, x._flat.tobytes()


def assert_same(fn, key=space_bytes):
    py, nu = both_paths(lambda: key(fn()))
    assert py == nu
    return py


_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.floats(-1e-6, 1e-6, allow_nan=False, allow_infinity=False),
)


@st.composite
def point_clouds(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    dim = draw(st.integers(1, 12))
    return [draw(st.lists(_COORDS, min_size=dim, max_size=dim)) for _ in range(n)]


@given(point_clouds(), st.sampled_from(NORMS), st.booleans())
@settings(max_examples=150)
def test_point_distances(points, norm, reverse):
    labels = [f"p{i}" for i in range(len(points))][:: -1 if reverse else 1]
    assert_same(lambda: space_from_points(points, norm, labels=labels))


@pytest.mark.parametrize("labels", [["a", "b"], ["a", "b", "c", "d"], []])
def test_point_labels_must_match_the_points(labels):
    # too few, too many or no labels: the shape error, on both paths
    for points in ([[0.0], [1.0], [3.0]], np.array([[0.0], [1.0], [3.0]])):
        got = assert_same(lambda: space_from_points(points, labels=labels))
        message = f"distance matrix shape (3, 3) does not match {len(labels)} labels"
        assert got == ("InvalidArgument", message)


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("dim", [1, 2, 8, 9, 12])
def test_point_distances_across_the_constant(norm, dim):
    # under the real constant 127 points take the Python path, 128 and 200
    # the numpy one; each must equal the other path forced
    rng = np.random.default_rng(dim)
    for n in (127, 128, 200):
        pts = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4, size=(n, dim))
        pts[n // 2] = pts[0]
        got = space_bytes(space_from_points(pts, norm))
        assert got == assert_same(lambda: space_from_points(pts, norm))[1]


@st.composite
def matrices(draw, max_n=8):
    """A metric from a point cloud, labels in random order, then planted
    faults: -0.0 cells, asymmetry, negative cells, a nonzero diagonal and
    a stretched pair that breaks a triangle."""
    n = draw(st.integers(1, max_n))
    pts = [[draw(st.sampled_from([0.0, 1.0, 2.5, -3.0]))] for _ in range(n)]
    d = space_from_points(pts, "manhattan")._rows()
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for _ in range(draw(st.integers(0, 3))):
        (i, j), fault = draw(cell), draw(
            st.sampled_from(["-0.0", "asym", "tiny asym", "negative", "tiny negative",
                             "diagonal", "stretch"])
        )
        if fault == "-0.0":
            d[i][j] = -0.0
        elif fault == "asym":
            d[i][j] += 1.0
        elif fault == "tiny asym":
            d[i][j] += 1e-12
        elif fault == "negative":
            d[i][j] = d[j][i] = -1.0
        elif fault == "tiny negative":
            d[i][j] = d[j][i] = -1e-12
        elif fault == "diagonal":
            d[i][i] = draw(st.sampled_from([1e-12, 0.5]))
        else:
            d[i][j] = d[j][i] = d[i][j] + 4.0
    labels = draw(st.permutations([f"p{i}" for i in range(n)]))
    return labels, d


@given(matrices(), st.booleans())
@settings(max_examples=300)
def test_validation(case, check_triangle):
    labels, d = case
    assert_same(lambda: validate_metric(labels, d, check_triangle=check_triangle))


@given(matrices())
@settings(max_examples=200)
def test_closure(case):
    labels, d = case
    assert_same(lambda: metric_closure(labels, d))


def _mean(a, b):
    s = a + b
    return s / 2.0 if abs(s) != math.inf else a / 2.0 + b / 2.0


def _full_closure(labels, matrix):
    """The closure as it was computed before it relaxed only the pairs
    above the diagonal: Floyd-Warshall over whole rows of the checked
    matrix, then each entry averaged with its transpose, then a zero
    diagonal."""
    labels, flat, _ = metric._checked_matrix(labels, matrix, metric.REL_TOL)
    n = len(labels)
    rows = [flat[i * n : (i + 1) * n].tolist() for i in range(n)]
    for k in range(n):
        pivot = rows[k]
        for i, via in enumerate([row[k] for row in rows]):
            if via != math.inf:
                rows[i] = [o if o <= (s := via + p) else s for o, p in zip(rows[i], pivot)]
    out = [[0.0 if i == j else _mean(rows[i][j], rows[j][i]) for j in range(n)] for i in range(n)]
    return FiniteMetricSpace._of(labels, array("d", [v for row in out for v in row]))


_CLOSURE_ENTRIES = st.one_of(
    st.floats(0.0, 10.0),
    st.sampled_from([0.0, 1.0, 2.0, 3.0]),  # ties
    st.sampled_from([5e-324, 1e308, 1.5e308, 1.7976931348623157e308]),  # sums overflow
)


@st.composite
def closure_inputs(draw):
    """Symmetric nonnegative matrices on 1 to 12 points, then faults within
    tolerance: asymmetry, tiny negatives, -0.0 cells and a tiny diagonal."""
    n = draw(st.integers(1, 12))
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = draw(_CLOSURE_ENTRIES)
    top = max(map(max, d))
    tiny = 1e-11 * top  # within the tolerance while the largest entry stays
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for _ in range(draw(st.integers(0, 4))):
        (i, j), fault = draw(cell), draw(st.sampled_from(["asym", "negative", "-0.0", "diagonal"]))
        if d[i][j] == top:
            continue
        if fault == "asym":
            d[i][j] -= tiny
        elif fault == "negative":
            d[i][j] = d[j][i] = -tiny
        elif fault == "-0.0":  # against +0.0 or -0.0 at the mirror
            d[i][j] = -0.0
            if d[j][i]:
                d[j][i] = draw(st.sampled_from([0.0, -0.0]))
        else:
            d[i][i] = tiny
    labels = draw(st.permutations([f"p{i:02d}" for i in range(n)]))
    return labels, d


@given(closure_inputs())
@settings(max_examples=300)
def test_closure_matches_the_full_closure(case):
    labels, d = case
    got = both_paths(lambda: space_bytes(metric_closure(labels, d)))
    assert got == both_paths(lambda: space_bytes(_full_closure(labels, d)))
    assert got[0][0] == "ok"


def test_closure_matches_the_full_closure_across_the_constant():
    n = 140
    rng = np.random.default_rng(5)
    d = rng.uniform(0.1, 1.0, size=(n, n))
    d = np.triu(d, 1) + np.triu(d, 1).T
    labels = [f"m{i:03d}" for i in range(n)][::-1]
    want = space_bytes(_full_closure(labels, d))
    assert space_bytes(metric_closure(labels, d)) == want
    assert both_paths(lambda: space_bytes(metric_closure(labels, d))) == [("ok", want)] * 2


@pytest.mark.parametrize("rel_tol", [math.nan, -1.0, math.inf, -math.inf])
def test_rel_tol_must_be_finite_and_nonnegative(rel_tol):
    # nan and inf made every axiom check pass; a negative one failed every input
    d = [[0, 1, 9], [5, 0, 1], [9, 1, 0]]
    message = f"rel_tol must be finite and nonnegative, got {rel_tol!r}"
    for fn in (validate_metric, metric_closure):
        for matrix in (d, [[0, 1], [1, 0]]):
            labels = ["a", "b", "c"][: len(matrix)]
            got = both_paths(lambda: fn(labels, matrix, rel_tol=rel_tol))
            assert got == [("InvalidArgument", message)] * 2


def test_rel_tol_zero_checks_exactly():
    labels = ["a", "b", "c"]
    d = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    for fn in (validate_metric, metric_closure):
        py, nu = both_paths(lambda: space_bytes(fn(labels, d, rel_tol=0.0)))
        assert py == nu and py[0] == "ok"
    off = [[0, 1, 2], [1 + 1e-15, 0, 1], [2, 1, 0]]
    got = both_paths(lambda: validate_metric(labels, off, rel_tol=0.0))
    assert got == [("AsymmetricMatrix", "matrix differs from transpose by 1.11e-15")] * 2


_INF, _NAN = math.inf, math.nan
_NON_FINITE = ("InvalidArgument", "distance matrix contains non-finite entries")
_ASYMMETRIC = "matrix differs from transpose by "


@pytest.mark.parametrize(
    "matrix, error",
    [
        # non-finite + asymmetric, + negative
        ([[0, _INF, 1], [2, 0, 1], [1, 5, 0]], _NON_FINITE),
        ([[0, 1, 3], [_NAN, 0, 1], [1, 1, 0]], _NON_FINITE),
        ([[0, -1, 1], [-1, 0, -_INF], [1, 1, 0]], _NON_FINITE),
        # asymmetric + negative, + nonzero diagonal
        ([[0, -2, 1], [-2, 0, 3], [1, 1, 0]], ("AsymmetricMatrix", _ASYMMETRIC + "2")),
        ([[0, 1, -1], [1, 0, 1], [-1, 5, 0]], ("AsymmetricMatrix", _ASYMMETRIC + "4")),
        ([[0, 1, 1], [1.5, 0.5, 1], [1, 1, 0]], ("AsymmetricMatrix", _ASYMMETRIC + "0.5")),
        # negative + nonzero diagonal, the negative on and off the diagonal
        ([[0.5, 1, 1], [1, 0, -1], [1, -1, 0]], ("NegativeDistance", "d(a, b) = -1 is negative")),
        ([[0, 1, 1], [1, 0, 2], [1, 2, -0.25]], ("NegativeDistance", "d(b, b) = -0.25 is negative")),
        # a negative within tolerance is clamped, and the diagonal fails
        ([[0, 1, -1e-12], [1, 0.5, 1], [-1e-12, 1, 0]], ("NonzeroDiagonal", "d(a, a) = 0.5 != 0")),
    ],
)
def test_first_fault_wins(matrix, error):
    # two faults in one matrix: the error was recorded before the Python
    # checks ran in one pass over the pairs
    for fn in (validate_metric, metric_closure):
        assert both_paths(lambda: fn(["c", "a", "b"], matrix)) == [error] * 2


@given(matrices())
def test_constructor(case):
    labels, d = case
    assert_same(lambda: FiniteMetricSpace(labels, d))


@pytest.mark.parametrize("planted", [[], [(100, 139)], [(3, 129), (129, 3)]])
def test_validation_across_the_constant(planted):
    n = 140
    rng = np.random.default_rng(len(planted))
    d = space_from_points(rng.random((n, 3)))._rows()
    for i, j in planted:
        d[i][j] = d[j][i] = d[i][j] + 1.0
    labels = [f"m{i:03d}" for i in range(n)][::-1]
    py, nu = both_paths(lambda: space_bytes(validate_metric(labels, d)))
    assert py == nu == _result(lambda: space_bytes(validate_metric(labels, d)))
    if planted:
        assert py[0] == "TriangleViolation"
    closed = both_paths(lambda: space_bytes(metric_closure(labels, d)))
    assert closed[0] == closed[1]


@pytest.mark.parametrize(
    "matrix",
    [[], [[0.0, 1.0]], [[0.0], [1.0]], [[0.0, 1.0], [1.0]], [["0", "1"], ["1", "0"]],
     [[0.0, math.nan], [math.nan, 0.0]], [[0.0, math.inf], [math.inf, 0.0]], "ab"],
)
def test_malformed_inputs_fail_alike(matrix):
    labels = ["a", "b"]
    for fn in (validate_metric, metric_closure, FiniteMetricSpace):
        assert_same(lambda: fn(labels, matrix))


@pytest.mark.parametrize("matrix", [[[0, 1], [1]], [[0, "x"], [1, 0]]])
def test_rows_numpy_cannot_convert_fail_in_this_programs_words(matrix):
    # numpy's "inhomogeneous shape" and "could not convert string to float"
    want = ("InvalidArgument", "distance matrix must be 2 rows of 2 finite numbers")
    for fn in (validate_metric, metric_closure, FiniteMetricSpace):
        assert both_paths(lambda: fn(["a", "b"], matrix)) == [want] * 2
    want = ("InvalidArgument", "expected a non-empty 2d array of coordinates")
    assert both_paths(lambda: space_from_points(matrix)) == [want] * 2


_WEIGHTS = st.one_of(
    st.floats(0.0, 10.0),
    st.sampled_from([0.0, 1.0, 5e-324, 1e308, 1.7e308, math.inf]),
)


@given(st.data(), st.integers(1, 8))
def test_min_plus(data, n):
    # the Python closure relaxes a symmetric matrix with a zero diagonal
    # above the diagonal only, numpy's min-plus square relaxes all of it;
    # sums of the entries near 1e308 overflow to inf
    d = [0.0] * (n * n)
    for i in range(n):
        for j in range(i + 1, n):
            d[i * n + j] = d[j * n + i] = data.draw(_WEIGHTS)
    a = np.array(d, dtype=np.float64).reshape(n, n)
    metric._min_plus(a, a, a)
    metric._floyd_warshall(d, n)
    assert array("d", d).tobytes() == a.tobytes()


_BOUNDS = st.one_of(
    st.floats(0.0, 3.0), st.sampled_from([0.0, -0.0, 1.0, math.inf, -1.0, math.nan])
)


@given(matrices(), st.lists(_BOUNDS, min_size=1, max_size=4))
def test_threshold_masks(case, bounds):
    labels, d = case
    x, sorted_x = FiniteMetricSpace(labels, d), FiniteMetricSpace(labels, d)
    sorted_x._sort_rows()
    for bound in bounds:
        py, nu = both_paths(lambda: metric._adjacency_at_most(x._flat, x.n, bound))
        assert py == nu
        assert x._adjacency(bound) == sorted_x._adjacency(bound) == py[1]


def test_threshold_masks_of_a_space_holding_nan():
    x = FiniteMetricSpace(["a", "b", "c"], [[0, 1, math.nan], [1, 0, 2], [math.nan, 2, 0]])
    x._sort_rows()
    assert x._sorted_rows is None
    for bound in (0.5, 1.0, 2.0, math.inf, math.inf):
        assert x._adjacency(bound) == metric._adjacency_at_most(x._flat, 3, bound)


@given(
    point_clouds(),
    st.floats(0.0, 3.0),
    st.sampled_from([1, 2, 3, math.inf]),
    st.one_of(st.floats(0.0, 6.0), st.just(math.inf)),
)
def test_step_relation(points, delta, k, budget):
    x = space_from_points([[c % 4 for c in p] for p in points], "manhattan")
    assert functors._step_relation(x, delta, k, budget) == min_plus_step_relation(
        x, delta, k, budget
    )


@pytest.mark.parametrize(
    "k, budget, delta", [(2, 0.3, 0.15), (3, 0.5, 0.2), (math.inf, 0.5, 0.1), (math.inf, 1.0, 0.3)]
)
def test_step_relation_at_130_points(k, budget, delta):
    # above metric._NUMPY_MIN_POINTS, where the other dense kernels run on numpy
    x = verify.random_metric(130, 1)
    want = min_plus_step_relation(x, delta, k, budget)
    assert functors._step_relation(x, delta, k, budget) == want
    assert any(want) and not all(m.bit_count() == 129 for m in want)


@pytest.mark.parametrize("n", [2, 130])
def test_distances_above_half_the_largest_float_stay_finite(n):
    # averaging with the transpose once overflowed these to inf
    labels = [f"p{i:03d}" for i in range(n)]
    big = [[0.0 if i == j else 1e308 for j in range(n)] for i in range(n)]
    for build in (metric.validate_metric, metric.metric_closure):
        _, (_, flat) = assert_same(lambda: build(labels, big))
        assert set(array("d", flat)) == {0.0, 1e308}
    for far, expect in (([1.5e308], 1.5e308), ([1e200, 1e200], math.hypot(1e200, 1e200))):
        points = [[0.0] * len(far)] * (n - 1) + [far]
        _, (_, flat) = assert_same(lambda: space_from_points(points))
        assert max(array("d", flat)) == pytest.approx(expect, rel=1e-15)


def test_step_relation_keeps_the_step_limit():
    # a -> b -> c (total 2) beats the direct a -> c (3), but c -> d then
    # makes three steps: within budget 3.5 at k = 3, not at k = 2, where
    # the cheapest two-step total to d is a -> c -> d = 4
    d = [[0, 1, 3, 9, 9], [1, 0, 1, 9, 9], [3, 1, 0, 1, 9], [9, 9, 1, 0, 9], [9, 9, 9, 9, 0]]
    x = FiniteMetricSpace("abcde", d)
    for k, reached in ((2, 0b0110), (3, 0b1110)):
        got = functors._step_relation(x, 3.0, k, 3.5)
        assert got == min_plus_step_relation(x, 3.0, k, 3.5)
        assert got[0] == reached


def _argsort_batches(x):
    """The threshold batches from a stable numpy argsort of the upper
    triangle: the oracle for the builder's Python sort."""
    rows, cols = np.triu_indices(x.n, 1)
    dist = x.dist[rows, cols]
    order = np.argsort(dist, kind="stable")
    batches = [(0.0, [])]
    for d, u, v in zip(dist[order].tolist(), rows[order].tolist(), cols[order].tolist()):
        if d != batches[-1][0]:
            batches.append((d, []))
        batches[-1][1].append((u, v))
    return batches


@given(point_clouds(max_n=12), st.sampled_from(NORMS))
def test_threshold_batches(points, norm):
    # coarse coordinates tie many distances: ties keep row-major order
    pts = [[round(c) % 3 for c in p] for p in points]
    x = space_from_points(pts, norm)
    assert sieves._threshold_batches(x) == _argsort_batches(x)


def test_threshold_batches_across_the_constant():
    # 130 points, above the size where the dense kernels switch to numpy
    pts = [[i % 7, i // 7] for i in range(130)]
    x = space_from_points(pts, "manhattan")
    assert sieves._threshold_batches(x) == _argsort_batches(x)


@given(
    text=csv_documents(),
    fmt=st.sampled_from(FORMATS),
    norm=st.sampled_from(POINT_NORMS),
)
@settings(max_examples=200)
def test_csv_grid(tmp_path_factory, text, fmt, norm):
    path = str(tmp_path_factory.getbasetemp() / "paths.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    py, nu = both_paths(lambda: _outcome(ingest_space, path, fmt, norm))
    assert py == nu


@pytest.mark.parametrize("mode", verify.METRIC_MODES)
@pytest.mark.parametrize("n", [1, 2, 7, 130])
def test_generators(mode, n):
    assert_same(lambda: verify.random_metric(n, 11, mode))


@pytest.mark.parametrize("category", ["met", "metinj"])
def test_random_morphisms(category):
    for seed in range(40):
        x = verify.random_metric(2 + seed % 6, seed, verify.METRIC_MODES[seed % 3])

        def draw():
            y, f = verify.random_morphism(x, verify.SplitMix64(seed), category)
            return space_bytes(y), f.assignment

        assert_same(draw, key=lambda r: r)


@pytest.mark.parametrize("family, k", [("sl", None), ("ml", None), ("l", 2), ("bk", 2)])
def test_sieves(family, k):
    x = verify.random_metric(9, 5, "closure-of-random-matrix")
    assert_same(lambda: build_sieve(x, MethodSpec(family, k=k)).to_dict(), key=lambda s: s)


def test_signed_zero_is_stored_as_plus_zero():
    neg, pos = path_space(2, -0.0), path_space(2, 0.0)
    assert neg == pos
    assert hash(neg) == hash(pos)
    assert len({neg, pos}) == 1
    assert neg._flat.tobytes() == array("d", [0.0] * 9).tobytes()
    edge = space_from_graph(Graph(["b", "a"], [("a", "b")]), -0.0)
    assert edge._flat.tobytes() == bytes(32)
    for limit in (PYTHON, NUMPY):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric, "_NUMPY_MIN_POINTS", limit)
            zeros = [[-0.0, -0.0], [-0.0, -0.0]]
            for build in (FiniteMetricSpace, validate_metric, metric_closure):
                x = build(["b", "a"], zeros)
                assert x._flat.tobytes() == bytes(32), build.__name__
                assert not np.signbit(x.dist).any()


@pytest.mark.parametrize("check", [validate_metric, metric_closure])
@pytest.mark.parametrize("limit", [PYTHON, NUMPY], ids=["python", "numpy"])
def test_a_checked_space_canonicalizes_its_labels_once(monkeypatch, check, limit):
    monkeypatch.setattr(metric, "_NUMPY_MIN_POINTS", limit)
    calls = []
    real = metric._canonical_labels
    monkeypatch.setattr(metric, "_canonical_labels", lambda labels: calls.append(labels) or real(labels))
    x = check(["c", "a", "b"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert x.labels == ("a", "b", "c")
    assert x.distance("a", "c") == 1.0
    assert len(calls) == 1


def test_dist_is_a_read_only_view_of_the_buffer():
    x = space_from_points([[0.0], [1.0], [3.0]])
    view = x.dist
    assert view is x.dist
    assert view.shape == (3, 3) and view.dtype == np.float64
    assert np.shares_memory(view, np.frombuffer(x._flat))
    with pytest.raises(ValueError):
        view[0, 1] = 5.0


def _traced_peak(fn) -> int:
    # a collection of earlier garbage inside fn would shift its peak by the
    # few bytes the collection allocates: collect it first
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_label_order_costs_no_matrix_copy():
    # a large cloud sorts its coordinates by label and builds its matrix
    # when read; a matrix is permuted in place on the numpy path, one row
    # at a time: so reversed labels cost no extra matrix at the peak
    n = 900
    pts = np.random.default_rng(0).random((n, 2))
    names = [f"p{i:03d}" for i in range(n)]
    reverse = names[::-1]
    build = lambda labels: space_from_points(pts, labels=labels)._flat
    build(reverse)  # first-call allocations are not the permutation's
    assert _traced_peak(lambda: build(reverse)) <= _traced_peak(lambda: build(names))
    # the constructor copies its input once; the permutation adds a few rows
    d = space_from_points(pts).dist
    build = lambda labels: FiniteMetricSpace(labels, d)
    reversed_peak = _traced_peak(lambda: build(reverse))
    assert reversed_peak <= _traced_peak(lambda: build(names)) + 4 * n * 8
    assert reversed_peak <= (n + 64) * n * 8  # one matrix and some rows


def test_validation_holds_one_matrix_beside_its_input():
    # the checks write only the buffer that the space keeps: one n x n array
    # of floats beside the input, and for a moment one of booleans
    n = 600
    d = space_from_points(np.random.default_rng(1).random((n, 2))).dist.copy()
    labels = [f"m{i:03d}" for i in range(n)]
    peak = _traced_peak(lambda: validate_metric(labels, d, check_triangle=False))
    assert peak <= 1.2 * n * n * 8


def test_checked_matrix_is_symmetric_with_zero_diagonal():
    d = [[1e-12, 1.0, 2.0], [1.0 + 1e-10, -0.0, 1.5], [2.0, 1.5, -1e-12]]
    for limit in (PYTHON, NUMPY):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric, "_NUMPY_MIN_POINTS", limit)
            x = validate_metric(["a", "b", "c"], d, rel_tol=1e-9)
            m = x.dist
            assert (m == m.T).all() and not np.diagonal(m).any()
            assert not np.signbit(m).any()


def test_fileio_grid_takes_the_path_of_its_row_count(tmp_path):
    p = tmp_path / "m.csv"
    fileio.write_matrix_csv(space_from_points([[i] for i in range(5)]), p)
    t = fileio._read_table(str(p))
    assert isinstance(fileio._cells(t, True, True), list)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "_NUMPY_MIN_POINTS", 5)
        assert isinstance(fileio._cells(t, True, True), np.ndarray)
        assert isinstance(fileio._cells(t, False, True), np.ndarray)
        # a point cloud's cells stay Python rows at every size
        assert isinstance(fileio._cells(t, True, True, points=True), list)
