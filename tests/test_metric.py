"""Metric validation, constructions, and non-expansive maps."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sievecluster import (
    AsymmetricMatrix,
    DuplicateLabel,
    FiniteMetricSpace,
    MetricMap,
    NegativeDistance,
    NonzeroDiagonal,
    TriangleViolation,
    metric_closure,
    path_space,
    space_from_points,
    validate_metric,
)


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
    with pytest.raises(DuplicateLabel):
        FiniteMetricSpace(["a", "a"], [[0, 1], [1, 0]])


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


def test_sampled_triangle_check_reports_triple():
    # above 600 points triangles are sampled; this sample hits (0, k, 1)
    n = 700
    d = np.ones((n, n))
    np.fill_diagonal(d, 0.0)
    d[0, 1] = d[1, 0] = 2.5
    labels = [f"p{i:03d}" for i in range(n)]
    with pytest.raises(TriangleViolation) as exc:
        validate_metric(labels, d)
    a, k, c = exc.value.triple
    assert {a, c} == {"p000", "p001"} and k not in {a, c}
    assert exc.value.excess == pytest.approx(0.5)


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


def test_path_space_distances():
    lam = path_space(3, 0.5)
    assert lam.n == 4
    assert lam.distance(lam.labels[0], lam.labels[3]) == pytest.approx(1.5)
    assert lam.distance(lam.labels[1], lam.labels[2]) == pytest.approx(0.5)


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


def test_one_point_space():
    x = FiniteMetricSpace(["only"], [[0.0]])
    assert x.diameter() == 0.0
    assert x.pairwise_distances() == []


def test_nonfinite_entries_rejected():
    with pytest.raises(ValueError):
        validate_metric(["a", "b"], [[0, math.inf], [math.inf, 0]])
