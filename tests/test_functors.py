"""Flat clustering methods: worked examples, identities, and laws."""

import itertools
import math
import time

import pytest
from hypothesis import given, strategies as st

from sievecluster import (
    FlagCover,
    MethodSpec,
    SearchBudgetExceeded,
    TrivialFunctor,
    bk_clusters,
    bk_star_clusters,
    clustering_parameter,
    cover_metric,
    edge_linkage,
    evaluate_method,
    generated_cluster,
    k_linkage,
    maximal_linkage,
    path_space,
    refines,
    single_linkage,
    space_from_points,
    vertex_linkage,
)
from sievecluster.verify import random_metric

from conftest import graph_space

INF = math.inf


def test_single_linkage_examples(x3):
    assert single_linkage(x3, 1.0).blocks == (("a", "b", "c"),)
    assert single_linkage(x3, 0.5).blocks == (("a",), ("b",), ("c",))
    assert single_linkage(x3, x3.diameter()).blocks == (("a", "b", "c"),)
    assert single_linkage(x3, 1.0).is_partition()


def test_maximal_linkage_examples(x3, bowtie):
    assert maximal_linkage(x3, 1.0).blocks == (("a", "b"), ("b", "c"))
    assert maximal_linkage(bowtie, 1.0).blocks == (("1", "2", "3"), ("3", "4", "5"))
    assert maximal_linkage(x3, 2.0).blocks == (("a", "b", "c"),)


def test_maximal_linkage_deep_near_clique():
    # 1,500 points on a line: at delta 0.9995 only the two ends are apart,
    # so the threshold graph is K_1500 minus one edge and the clique search
    # nests one frame per vertex; a recursive search overflows the stack
    x = space_from_points([[i / 1499] for i in range(1500)])
    start = time.perf_counter()
    blocks = maximal_linkage(x, 0.9995).blocks
    assert time.perf_counter() - start < 30.0
    assert [len(b) for b in blocks] == [1499, 1499]
    first, last = x.labels[0], x.labels[-1]
    assert [set(x.labels) - set(b) for b in blocks] == [{last}, {first}]


def test_k_linkage_examples(x3):
    assert k_linkage(x3, 1.0, 2, INF).blocks == (("a", "b", "c"),)
    assert k_linkage(x3, 1.0, 1, INF) == maximal_linkage(x3, 1.0)
    assert k_linkage(x3, 1.0, 2, 1.5).blocks == (("a", "b"), ("b", "c"))


def test_k_linkage_sentinels_recover_sl_and_ml():
    for seed in range(10):
        x = random_metric(3 + seed % 5, 7000 + seed, "closure-of-random-matrix")
        delta = x.pairwise_distances()[0]
        assert k_linkage(x, delta, INF, INF) == single_linkage(x, delta)
        assert k_linkage(x, delta, 1, INF) == maximal_linkage(x, delta)


def test_k_linkage_budget_limits_total_length():
    # four points on a line, steps of 1: with k=3 steps available but
    # budget 2, reach ends at distance 2
    lam = path_space(3, 1.0)
    a, b, c, d = lam.labels
    cover = k_linkage(lam, 1.0, 3, 2.0)
    assert cover.blocks == ((a, b, c), (b, c, d))


def test_vertex_linkage_examples(bowtie):
    assert vertex_linkage(bowtie, 1.0, 2).blocks == (("1", "2", "3"), ("3", "4", "5"))
    for seed in range(8):
        x = random_metric(3 + seed % 4, 7100 + seed, "euclidean-points")
        delta = x.pairwise_distances()[len(x.pairwise_distances()) // 2]
        assert vertex_linkage(x, delta, 1) == single_linkage(x, delta)
        assert vertex_linkage(x, delta, x.n) == maximal_linkage(x, delta)
        assert vertex_linkage(x, delta, INF) == maximal_linkage(x, delta)


def test_edge_linkage_examples(bowtie):
    assert edge_linkage(bowtie, 1.0, 2).blocks == (("1", "2", "3", "4", "5"),)
    lam = path_space(4, 1.0)
    assert all(len(b) == 1 for b in edge_linkage(lam, 1.0, 2).blocks)
    for seed in range(8):
        x = random_metric(3 + seed % 4, 7200 + seed, "ultrametric-tree")
        delta = x.pairwise_distances()[0]
        assert edge_linkage(x, delta, 1) == single_linkage(x, delta)
    assert edge_linkage(bowtie, 1.0, 2).is_partition()


def test_bk_and_bkstar_examples(x3, four_cycle):
    assert bk_clusters(x3, 1.0, 2).blocks == (("a", "b"), ("b", "c"))
    assert bk_star_clusters(x3, 1.0, 2).blocks == (("a", "b"), ("b", "c"))
    assert bk_star_clusters(four_cycle, 1.0, 2).blocks == (("a", "b", "c", "d"),)
    assert bk_clusters(four_cycle, 1.0, 2).blocks == (
        ("a", "b"),
        ("a", "d"),
        ("b", "c"),
        ("c", "d"),
    )
    assert bk_clusters(x3, 2.0, 2).blocks == (("a", "b", "c"),)
    assert bk_star_clusters(x3, 2.0, 2).blocks == (("a", "b", "c"),)


def test_generated_equals_maximal_linkage_on_two_point_test_space():
    lam = path_space(1, 1.0)
    for seed in range(8):
        x = random_metric(3 + seed % 4, 7300 + seed, "closure-of-random-matrix")
        assert generated_cluster(x, (lam,)) == maximal_linkage(x, 1.0)


def test_generated_equals_two_step_linkage_on_x3(x3):
    lam2 = path_space(2, 1.0)
    assert generated_cluster(x3, (lam2,)) == k_linkage(x3, 1.0, 2, INF)


def test_generated_one_point_test_space_gives_singletons(x3):
    from sievecluster import FiniteMetricSpace

    point = FiniteMetricSpace(["t"], [[0.0]])
    assert generated_cluster(x3, (point,)).blocks == (("a",), ("b",), ("c",))


def test_generated_rejects_large_test_space():
    big = path_space(6, 1.0)  # 7 points
    with pytest.raises(SearchBudgetExceeded):
        generated_cluster(path_space(2, 1.0), (big,))


def test_clustering_parameter_examples():
    p = clustering_parameter(MethodSpec(family="sl", delta=1.0))
    assert p.delta_f == 1.0 and p.boundary_merged
    p = clustering_parameter(MethodSpec(family="ml", delta=2.5))
    assert p.delta_f == 2.5 and p.boundary_merged
    p = clustering_parameter(MethodSpec(family="vl", delta=1.0, k=3))
    assert p.delta_f == 1.0 and p.boundary_merged
    p = clustering_parameter(MethodSpec(family="bk", delta=0.25, k=2))
    assert p.delta_f == 0.25
    p = clustering_parameter(MethodSpec(family="l", delta=2.0, k=3, budget=1.0))
    assert p.delta_f == 1.0  # the budget binds before the step size


def test_clustering_parameter_flags_triviality():
    with pytest.raises(TrivialFunctor):
        clustering_parameter(MethodSpec(family="el", delta=1.0, k=2))
    with pytest.raises(TrivialFunctor):
        clustering_parameter(MethodSpec(family="el", delta=1.0, k=3))


def test_clustering_parameter_generated():
    lam = path_space(1, 2.0)
    p = clustering_parameter(MethodSpec(family="generated", test_spaces=(lam,)))
    assert p.delta_f == 2.0 and p.boundary_merged


def test_method_spec_validation():
    with pytest.raises(ValueError):
        MethodSpec(family="nope", delta=1.0)
    with pytest.raises(ValueError):
        MethodSpec(family="vl", delta=1.0)  # k required
    with pytest.raises(ValueError):
        MethodSpec(family="sl", delta=1.0, k=2)  # k not accepted
    with pytest.raises(ValueError):
        MethodSpec(family="vl", delta=1.0, k=0)
    with pytest.raises(ValueError):
        MethodSpec(family="vl", delta=1.0, k=2, budget=1.0)  # K is l-only
    with pytest.raises(ValueError):
        MethodSpec(family="sl", delta=-0.5)
    with pytest.raises(ValueError):
        MethodSpec(family="generated")  # needs test spaces
    with pytest.raises(ValueError):
        MethodSpec(family="sl", delta=1.0, test_spaces=(path_space(1, 1.0),))


def test_method_spec_roundtrip_and_labels():
    spec = MethodSpec(family="l", delta=1.0, k=2, budget=math.inf)
    again = MethodSpec.from_dict(spec.to_dict())
    assert again == spec
    assert "inf" in str(spec.to_dict()["K"])
    spec = MethodSpec(family="vl", delta=0.5, k=math.inf)
    assert MethodSpec.from_dict(spec.to_dict()) == spec


def test_evaluate_method_dispatch(x3):
    assert evaluate_method(x3, MethodSpec(family="sl", delta=1.0)) == single_linkage(
        x3, 1.0
    )
    assert evaluate_method(
        x3, MethodSpec(family="l", delta=1.0, k=2, budget=1.5)
    ) == k_linkage(x3, 1.0, 2, 1.5)
    assert evaluate_method(
        x3, MethodSpec(family="el", delta=1.0, k=2)
    ) == edge_linkage(x3, 1.0, 2)
    with pytest.raises(ValueError):
        evaluate_method(x3, MethodSpec(family="sl"))  # no delta


def test_cover_metric_recovers_cover():
    fc = FlagCover(("a", "b", "c", "d"), [("a", "b", "c"), ("c", "d")])
    x = cover_metric(fc, 1.0)
    assert x.distance("a", "b") == 1.0
    assert x.distance("a", "d") == 2.0
    assert maximal_linkage(x, 1.0) == fc


def test_all_outputs_are_flag_covers(x3, bowtie, four_cycle):
    specs = [
        MethodSpec(family="sl", delta=1.0),
        MethodSpec(family="ml", delta=1.0),
        MethodSpec(family="l", delta=1.0, k=2, budget=1.5),
        MethodSpec(family="vl", delta=1.0, k=2),
        MethodSpec(family="el", delta=1.0, k=2),
        MethodSpec(family="bk", delta=1.0, k=2),
        MethodSpec(family="bkstar", delta=1.0, k=2),
    ]
    for x in (x3, bowtie, four_cycle):
        for spec in specs:
            cover = evaluate_method(x, spec)
            assert isinstance(cover, FlagCover)
            assert cover.base == x.labels


@given(st.integers(0, 2**10 - 1), st.sampled_from([1, 2, 3]))
def test_delta_monotonicity_of_k_linkage(mask, k):
    pairs = list(itertools.combinations(range(5), 2))
    edges = [p for e, p in enumerate(pairs) if mask >> e & 1]
    x = graph_space(5, edges)
    assert refines(k_linkage(x, 1.0, k, INF), k_linkage(x, 2.0, k, INF))


@given(st.integers(0, 2**10 - 1))
def test_sandwich_on_graph_spaces(mask):
    pairs = list(itertools.combinations(range(5), 2))
    edges = [p for e, p in enumerate(pairs) if mask >> e & 1]
    x = graph_space(5, edges)
    ml = maximal_linkage(x, 1.0)
    sl = single_linkage(x, 1.0)
    for spec in (
        MethodSpec(family="l", delta=1.0, k=2, budget=INF),
        MethodSpec(family="vl", delta=1.0, k=2),
        MethodSpec(family="bk", delta=1.0, k=2),
        MethodSpec(family="bkstar", delta=1.0, k=2),
    ):
        mid = evaluate_method(x, spec)
        assert refines(ml, mid)
        assert refines(mid, sl)


def test_probe_result_delta_nonnegative():
    p = clustering_parameter(MethodSpec(family="sl", delta=0.0))
    assert p.delta_f >= 0.0
