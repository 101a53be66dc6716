"""The harness decides its checks on relation masks: each decision must be
the one the covers give, and covers are built only for a failing trial.

Every method's output is a flag cover, the maximal cliques of its
relation, so consistency of a map is the pullback inclusion of relations
and refinement is inclusion. The oracles here are the cover-level
predicates (is_consistent_map, refines) on evaluate_method's covers, and
the connectivity decompositions behind the vl and el mask kernels.
"""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from sievecluster import (
    Graph,
    MethodSpec,
    co_blocking,
    evaluate_method,
    is_consistent_map,
    max_edge_connected_subgraphs,
    max_vertex_connected_subgraphs,
    path_space,
    random_metric,
    random_morphism,
    refines,
)
from sievecluster import verify
from sievecluster.covers import FlagCover, _co_blocking_masks
from sievecluster.functors import _method_relation
from sievecluster.graphs import _edge_blocks, _vertex_blocks
from sievecluster.metric import FiniteMetricSpace, MetricMap
from sievecluster.rng import SplitMix64
from sievecluster.verify import (
    CATEGORIES,
    METRIC_MODES,
    _graph_orbit_reps,
    _pulls_back,
    _search_counterexample,
    _within,
    check_functoriality,
    check_sandwich,
)

_TRIANGLE = FiniteMetricSpace(
    ["t0", "t1", "t2"], [[0.0, 0.35, 0.6], [0.35, 0.0, 0.45], [0.6, 0.45, 0.0]]
)

FAMILIES = [
    lambda d: MethodSpec("sl", d),
    lambda d: MethodSpec("ml", d),
    lambda d: MethodSpec("l", d, k=2),
    lambda d: MethodSpec("l", d, k=2, budget=1.5 * d),
    lambda d: MethodSpec("l", d, k=math.inf, budget=2.5 * d),
    lambda d: MethodSpec("vl", d, k=2),
    lambda d: MethodSpec("vl", d, k=3),
    lambda d: MethodSpec("el", d, k=2),
    lambda d: MethodSpec("el", d, k=3, clique_exception=True),
    lambda d: MethodSpec("bk", d, k=2),
    lambda d: MethodSpec("bkstar", d, k=1),
    lambda d: MethodSpec("generated", test_spaces=(path_space(1, d),)),
    lambda d: MethodSpec("generated", test_spaces=(_TRIANGLE,)),
]

specs = st.builds(
    lambda make, delta: make(delta),
    st.sampled_from(FAMILIES),
    st.sampled_from([0.2, 0.3, 0.45, 0.7]),
)


def _space(seed, n):
    return random_metric(n, seed, METRIC_MODES[seed % len(METRIC_MODES)])


def _image(f):
    return [f.target.index(f.assignment[p]) for p in f.source.labels]


@given(specs, st.integers(0, 10**6), st.integers(2, 7), st.sampled_from(CATEGORIES))
def test_relation_consistency_is_cover_consistency_on_morphisms(spec, seed, n, category):
    x = _space(seed, n)
    y, f = random_morphism(x, SplitMix64(seed), category)
    by_masks = _pulls_back(_method_relation(x, spec), _method_relation(y, spec), _image(f))
    by_covers = is_consistent_map(f, evaluate_method(x, spec), evaluate_method(y, spec))
    assert by_masks == by_covers


@given(specs, st.integers(0, 10**6), st.integers(2, 6), st.data())
def test_relation_consistency_is_cover_consistency_on_any_map(spec, seed, n, data):
    # the equivalence needs only that both covers are flag covers, not that
    # the map is non-expansive; arbitrary maps fail often, so both answers
    # are exercised
    x = _space(seed, n)
    y = _space(seed + 1, data.draw(st.integers(1, 6)))
    picks = data.draw(st.lists(st.integers(0, y.n - 1), min_size=n, max_size=n))
    f = MetricMap(x, y, {x.labels[i]: y.labels[a] for i, a in enumerate(picks)})
    by_masks = _pulls_back(_method_relation(x, spec), _method_relation(y, spec), picks)
    by_covers = is_consistent_map(f, evaluate_method(x, spec), evaluate_method(y, spec))
    assert by_masks == by_covers


@given(specs, specs, st.integers(0, 10**6), st.integers(1, 7))
def test_relation_inclusion_is_refinement(fine_spec, coarse_spec, seed, n):
    # the sandwich's two halves, on any pair of methods and scales
    x = _space(seed, n)
    by_masks = _within(_method_relation(x, fine_spec), _method_relation(x, coarse_spec))
    by_covers = refines(evaluate_method(x, fine_spec), evaluate_method(x, coarse_spec))
    assert by_masks == by_covers


def _check_kernels(g):
    n = len(g.vertices)
    adj = g.adjacency_masks()
    for level in [*range(1, n + 1), math.inf]:
        want = co_blocking(max_vertex_connected_subgraphs(g, level)).adj
        assert _co_blocking_masks(n, _vertex_blocks(adj, level)) == want
        for exception in (False, True):
            want = co_blocking(max_edge_connected_subgraphs(g, level, exception)).adj
            assert _co_blocking_masks(n, _edge_blocks(adj, level, exception)) == want


def _graphs_from_edge_masks(n, masks):
    labels = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    for mask in masks:
        adj = [0] * n
        for e, (i, j) in enumerate(pairs):
            if mask >> e & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        yield Graph.from_masks(labels, adj)


def test_mask_kernels_match_the_decompositions_on_small_graphs():
    # every graph on at most 4 labeled points, and every graph on 5 and 6
    # points up to isomorphism (the blocks are unique, so they move with
    # the labels)
    for n in range(1, 5):
        for g in _graphs_from_edge_masks(n, range(1 << (n * (n - 1) // 2))):
            _check_kernels(g)
    for n in (5, 6):
        for g in _graphs_from_edge_masks(n, _graph_orbit_reps(n)):
            _check_kernels(g)


@given(st.integers(7, 10), st.integers(0, 2**45 - 1))
def test_mask_kernels_match_the_decompositions_on_random_graphs(n, bits):
    masks = [bits & ((1 << (n * (n - 1) // 2)) - 1)]
    (g,) = _graphs_from_edge_masks(n, masks)
    _check_kernels(g)


@pytest.fixture
def cover_calls(monkeypatch):
    """Counts the calls the harness makes to the functions that build or
    compare covers."""
    counts = {}
    for name in ("evaluate_method", "refines", "preimage_cover", "maximal_linkage", "single_linkage"):
        real = getattr(verify, name)

        def counting(*args, _real=real, _name=name, **kw):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args, **kw)

        monkeypatch.setattr(verify, name, counting)
    return counts


def test_passing_checks_build_no_covers(cover_calls):
    report = check_functoriality(MethodSpec("ml", 0.3), 50, "met", seed=0)
    assert report.violations == []
    report = check_sandwich(MethodSpec("vl", 0.3, k=2), 50, seed=7)
    assert report.violations == []
    witness, tried = _search_counterexample(MethodSpec("sl", 1.0), 5, 10**6)
    assert witness is None and tried > 0
    assert cover_calls == {}


def test_failing_trials_build_their_covers(cover_calls):
    report = check_functoriality(MethodSpec("el", 0.3, k=2), 60, "met", seed=7)
    assert len(report.violations) == 3
    # two covers and one cover check per failing trial
    assert cover_calls == {"evaluate_method": 6, "refines": 3, "preimage_cover": 3}


def test_counterexample_builds_covers_for_its_witness_only(cover_calls):
    witness, _ = _search_counterexample(MethodSpec("el", 1.0, k=2), 5, 10**6)
    assert witness is not None
    # the witness's two covers and their check, then verify_witness's replay
    assert cover_calls == {"evaluate_method": 4, "refines": 1, "preimage_cover": 1}


def _singletons(x):
    return FlagCover.from_masks(x.labels, [1 << i for i in range(x.n)])


def test_sandwich_violation_entries_come_from_covers(monkeypatch):
    # a stand-in method that relates nothing and clusters into singletons:
    # maximal linkage at the probed scale cannot refine it wherever two
    # points are close
    real_relation, real_evaluate = verify._method_relation, verify.evaluate_method
    broken = MethodSpec("bk", 0.3, k=1)
    monkeypatch.setattr(
        verify, "_method_relation",
        lambda x, spec: [0] * x.n if spec == broken else real_relation(x, spec),
    )
    monkeypatch.setattr(
        verify, "evaluate_method",
        lambda x, spec: _singletons(x) if spec == broken else real_evaluate(x, spec),
    )
    report = check_sandwich(broken, 20, seed=7)
    assert report.violations
    for entry in report.violations:
        x = FiniteMetricSpace.from_dict(entry["x"])
        assert entry["fx"] == _singletons(x).to_dict()
        assert entry["ml_at_delta_f"] == real_evaluate(x, MethodSpec("ml", 0.3)).to_dict()
        assert entry["sl_at_delta_f"] == real_evaluate(x, MethodSpec("sl", 0.3)).to_dict()


def test_relation_and_cover_checks_that_disagree_raise(monkeypatch):
    # a relation that says no pair is ever related fails every sandwich on
    # masks, while the real covers pass it: that is a bug, not a violation
    real_relation = verify._method_relation
    spec = MethodSpec("l", 0.3, k=1)  # maximal linkage, under another name
    monkeypatch.setattr(
        verify, "_method_relation",
        lambda x, s: [0] * x.n if s == spec else real_relation(x, s),
    )
    with pytest.raises(AssertionError, match="disagree"):
        check_sandwich(spec, 20, seed=7)
