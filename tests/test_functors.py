"""Flat clustering methods: worked examples, identities, and laws."""

import itertools
import math
import time

import pytest
from hypothesis import given, strategies as st

from sievecluster import (
    Cover,
    FlagCover,
    Graph,
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
    relation_from_graph,
    single_linkage,
    space_from_graph,
    space_from_points,
    vertex_linkage,
)
from sievecluster.verify import brute_force_maximal_linked, iterative_flagify_oracle, random_metric

from conftest import graph_space
from test_graphs import (
    _adjsets,
    _randomized_order_closure,
    brute_edge_decomposition,
    brute_vertex_decomposition,
    make_graph,
)

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


def test_evaluate_method_dispatch(x3, bowtie, four_cycle):
    for x in (x3, bowtie, four_cycle):
        for delta in (0.5, 1.0, 1.5):
            cases = [
                (MethodSpec("sl", delta), single_linkage(x, delta)),
                (MethodSpec("ml", delta), maximal_linkage(x, delta)),
                (MethodSpec("l", delta, k=2, budget=1.5), k_linkage(x, delta, 2, 1.5)),
                (MethodSpec("l", delta, k=3), k_linkage(x, delta, 3)),
            ]
            for k in (1, 2, 3):
                cases += [
                    (MethodSpec("vl", delta, k=k), vertex_linkage(x, delta, k)),
                    (MethodSpec("el", delta, k=k), edge_linkage(x, delta, k)),
                    (
                        MethodSpec("el", delta, k=k, clique_exception=True),
                        edge_linkage(x, delta, k, clique_exception=True),
                    ),
                    (MethodSpec("bk", delta, k=k), bk_clusters(x, delta, k)),
                    (MethodSpec("bkstar", delta, k=k), bk_star_clusters(x, delta, k)),
                ]
            for spec, got in cases:
                assert evaluate_method(x, spec) == got, spec.label()
        probe = path_space(1, 1.0)
        assert evaluate_method(x, MethodSpec("generated", test_spaces=(probe,))) == (
            generated_cluster(x, [probe])
        )
    with pytest.raises(ValueError):
        evaluate_method(x3, MethodSpec(family="sl"))  # no delta


@pytest.mark.parametrize(
    "flat", [lambda x: maximal_linkage(x, math.nan), lambda x: vertex_linkage(x, math.nan, 2)]
)
def test_flat_functions_refuse_nan_delta(x3, flat):
    with pytest.raises(ValueError, match="delta must be nonnegative"):
        flat(x3)


def _all_graphs(max_n):
    """Every graph on v0..v{n-1} for n up to max_n."""
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield make_graph(n, [p for e, p in enumerate(pairs) if mask >> e & 1])


def _clique_sets(g, k):
    """The vertex sets of at most k vertices that are complete in g."""
    adj = _adjsets(g)
    return [
        s
        for r in range(1, k + 1)
        for s in itertools.combinations(g.vertices, r)
        if all(b in adj[a] for a, b in itertools.combinations(s, 2))
    ]


def _sl_oracle(g, k):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return Cover(g.vertices, [sorted(c) for c in nx.connected_components(h)])


def _el_oracle(g, k, clique_exception):
    blocks = list(brute_edge_decomposition(g, k).blocks)
    if clique_exception:
        blocks += _clique_sets(g, k)
    return iterative_flagify_oracle(Cover(g.vertices, blocks))


def _closure_oracle(g, k, relaxed):
    pairs = _randomized_order_closure(g, k, relaxed, seed=len(g.edges))
    closed = Graph(g.vertices, [tuple(p) for p in pairs])
    return brute_force_maximal_linked(relation_from_graph(closed))


# each family's cover on a graph space at scale 1, from test-side code
# only: its definition, not the relation the library sweeps
FLAT_ORACLES = {
    "sl": (lambda k: MethodSpec("sl", 1.0), _sl_oracle),
    "ml": (
        lambda k: MethodSpec("ml", 1.0),
        lambda g, k: brute_force_maximal_linked(relation_from_graph(g)),
    ),
    "vl": (
        lambda k: MethodSpec("vl", 1.0, k=k),
        lambda g, k: iterative_flagify_oracle(brute_vertex_decomposition(g, k)),
    ),
    "el": (lambda k: MethodSpec("el", 1.0, k=k), lambda g, k: _el_oracle(g, k, False)),
    "el-clique-exception": (
        lambda k: MethodSpec("el", 1.0, k=k, clique_exception=True),
        lambda g, k: _el_oracle(g, k, True),
    ),
    "bk": (lambda k: MethodSpec("bk", 1.0, k=k), lambda g, k: _closure_oracle(g, k, False)),
    "bkstar": (
        lambda k: MethodSpec("bkstar", 1.0, k=k),
        lambda g, k: _closure_oracle(g, k, True),
    ),
}


# from 6 points the raw vl and el (clique exception) blocks at k = 3 can
# fail the flag condition, as on these graphs, so the completion shows
_UNFLAGGED = [
    make_graph(6, [(0, 2), (0, 3), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (4, 5)]),
    make_graph(
        7,
        [(0, 2), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4), (1, 6)]
        + [(2, 3), (2, 4), (3, 4), (3, 6), (4, 5), (4, 6)],
    ),
]


@pytest.mark.parametrize("family", sorted(FLAT_ORACLES))
def test_flat_families_match_their_definitions(family):
    spec_at, oracle = FLAT_ORACLES[family]
    levels = (None,) if family in ("sl", "ml") else (1, 2, 3)
    for g in [*_all_graphs(5), *_UNFLAGGED]:
        x = space_from_graph(g, 1.0)
        for k in levels:
            assert evaluate_method(x, spec_at(k)) == oracle(g, k), (g.edges, k)


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
