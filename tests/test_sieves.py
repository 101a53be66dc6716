"""Scale-sweep profiles: construction, evaluation, axioms, consistency."""

import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from sievecluster import (
    Cover,
    FlagCover,
    MethodSpec,
    MetricMap,
    MonotonicityViolation,
    Sieve,
    block_births,
    build_sieve,
    check_sieve_axioms,
    evaluate_method,
    is_dendrogram,
    sieve_consistent,
)
from sievecluster import sieves
from sievecluster.covers import refines
from sievecluster.metric import FiniteMetricSpace, space_from_points
from sievecluster.rng import derive_seed
from sievecluster.verify import METRIC_MODES, _dense_sieve, random_flag_cover, random_metric


def test_build_sieve_single_linkage_x3(x3):
    s = build_sieve(x3, MethodSpec(family="sl", delta=1.0))
    assert s.breakpoints == (0.0, 1.0)
    assert s.covers[0].blocks == (("a",), ("b",), ("c",))
    assert s.covers[1].blocks == (("a", "b", "c"),)


def test_build_sieve_maximal_linkage_x3(x3):
    s = build_sieve(x3, MethodSpec(family="ml", delta=1.0))
    assert s.breakpoints == (0.0, 1.0, 2.0)
    assert s.covers[1].blocks == (("a", "b"), ("b", "c"))
    assert s.covers[2].blocks == (("a", "b", "c"),)


def test_build_sieve_one_point_space():
    x = FiniteMetricSpace(["p"], [[0.0]])
    s = build_sieve(x, MethodSpec(family="sl", delta=1.0))
    assert s.breakpoints == (0.0,)
    assert s.covers[0].blocks == (("p",),)


def test_evaluate_is_right_continuous(x3):
    s = build_sieve(x3, MethodSpec(family="ml", delta=1.0))
    assert s.evaluate(1.0) == s.covers[1]
    assert s.evaluate(0.99) == s.covers[0]
    assert s.evaluate(1.5) == s.covers[1]
    assert s.evaluate(100.0) == s.covers[-1]
    assert s.evaluate(0.0) == s.covers[0]
    with pytest.raises(ValueError):
        s.evaluate(-0.1)


def test_terminal_trivial(x3):
    s = build_sieve(x3, MethodSpec(family="ml", delta=1.0))
    assert s.terminal_trivial()


def test_sieve_validation_errors(x3):
    singles = FlagCover(x3.labels, [("a",), ("b",), ("c",)])
    whole = FlagCover(x3.labels, [("a", "b", "c")])
    with pytest.raises(ValueError):
        Sieve(x3.labels, (0.5, 1.0), (singles, whole))  # first bp not 0
    with pytest.raises(ValueError):
        Sieve(x3.labels, (0.0, 0.0), (singles, whole))  # not increasing
    with pytest.raises(ValueError):
        Sieve(x3.labels, (0.0,), (singles, whole))  # length mismatch
    with pytest.raises(ValueError):
        Sieve(x3.labels, (0.0, 1.0), (singles, singles))  # repeated cover
    other = FlagCover(("p", "q"), [("p", "q")])
    with pytest.raises(ValueError):
        Sieve(x3.labels, (0.0, 1.0), (singles, other))  # wrong base


def test_monotonicity_violation_carries_location():
    exc = MonotonicityViolation(3, 1.25)
    assert exc.index == 3
    assert exc.scale == 1.25
    assert "3" in str(exc) and "1.25" in str(exc)


def test_axiom_report_flags_swapped_covers(x3):
    singles = FlagCover(x3.labels, [("a",), ("b",), ("c",)])
    whole = FlagCover(x3.labels, [("a", "b", "c")])
    bad = Sieve(x3.labels, (0.0, 1.0), (whole, singles))
    report = check_sieve_axioms(bad)
    assert report.refinement_violations
    assert not report.is_persistent_cover
    assert not report.is_sieve
    assert "fail" in report.summary().lower() or "violat" in report.summary().lower()


def test_axiom_report_passes_genuine_profiles(x3, bowtie):
    for x in (x3, bowtie):
        for spec in (
            MethodSpec(family="sl", delta=1.0),
            MethodSpec(family="ml", delta=1.0),
            MethodSpec(family="l", delta=1.0, k=2, budget=math.inf),
            MethodSpec(family="vl", delta=1.0, k=2),
            MethodSpec(family="el", delta=1.0, k=2),
        ):
            sieve = build_sieve(x, spec)
            report = check_sieve_axioms(sieve)
            assert report.is_sieve, (x.labels, spec.label(), report.summary())


def _all_pairs_refinement(s):
    """The refinement check as it was: every block of each cover against
    every block of the next, through covers.refines."""
    return tuple(
        (i, s.breakpoints[i + 1])
        for i in range(len(s.covers) - 1)
        if not refines(s.covers[i], s.covers[i + 1])
    )


@st.composite
def hand_built_profiles(draw):
    """Profiles of random covers (nested blocks allowed), some flag covers,
    some pieces of a built sieve in a shuffled order: most break refinement."""
    n = draw(st.integers(1, 6))
    base = [f"p{i:02d}" for i in range(n)]  # the labels of the random generators
    pool = [
        Cover(base, [[x for i, x in enumerate(base) if m >> i & 1] for m in masks] + [[x] for x in base])
        for masks in draw(st.lists(st.lists(st.integers(1, 2**n - 1), max_size=4),
                                   min_size=1, max_size=6))
    ]
    pool += [random_flag_cover(n, draw(st.integers(0, 99))) for _ in range(3)]
    built = build_sieve(random_metric(n, draw(st.integers(0, 99))), MethodSpec("ml"))
    pool += list(built.covers)
    covers = [draw(st.sampled_from(pool)) for _ in range(draw(st.integers(1, 8)))]
    covers = [c for i, c in enumerate(covers) if i == 0 or c != covers[i - 1]]
    return Sieve(base, [float(i) for i in range(len(covers))], covers)


@given(hand_built_profiles())
@settings(max_examples=300)
def test_dying_block_refinement_matches_all_pairs_on_hand_built_profiles(s):
    assert check_sieve_axioms(s).refinement_violations == _all_pairs_refinement(s)


@pytest.mark.parametrize("spec", [MethodSpec("ml"), MethodSpec("sl"), MethodSpec("vl", k=2)],
                         ids=MethodSpec.label)
def test_dying_block_refinement_matches_all_pairs_on_built_sieves(spec):
    for seed in range(12):
        s = build_sieve(random_metric(4 + seed % 9, seed, METRIC_MODES[seed % 3]), spec)
        shuffled = Sieve(s.base, s.breakpoints, s.covers[::-1])
        for profile in (s, shuffled):
            assert check_sieve_axioms(profile).refinement_violations == _all_pairs_refinement(profile)


def test_finite_budget_sweep_is_persistent_cover_not_sieve(x3):
    # with the budget capped below the diameter, far points never merge,
    # so the profile satisfies refinement and continuity but not the
    # trivial-terminal condition
    sieve = build_sieve(x3, MethodSpec(family="l", delta=1.0, k=2, budget=1.5))
    report = check_sieve_axioms(sieve)
    assert report.is_persistent_cover
    assert not report.is_sieve
    assert not report.terminal_trivial
    assert "persistent cover" in report.summary()


def test_evaluation_matches_fresh_flat_runs(bowtie):
    spec = MethodSpec(family="vl", delta=1.0, k=2)
    sieve = build_sieve(bowtie, spec)
    for t in (0.0, 0.3, 1.0, 1.3, 2.0, 5.0):
        flat = evaluate_method(bowtie, spec.with_delta(t)) if t > 0 else None
        if t == 0.0:
            assert all(len(b) == 1 for b in sieve.evaluate(t).blocks)
        else:
            assert sieve.evaluate(t) == flat


def test_sieve_consistent_identity(x3):
    ident = MetricMap(x3, x3, {v: v for v in x3.labels})
    spec = MethodSpec(family="sl", delta=1.0)
    sx = build_sieve(x3, spec)
    assert sieve_consistent(ident, sx, sx)


def test_sieve_consistent_collapse(x3):
    y = FiniteMetricSpace(["u", "v"], [[0.0, 1.0], [1.0, 0.0]])
    f = MetricMap(x3, y, {"a": "u", "b": "u", "c": "v"})
    assert f.is_nonexpansive()
    spec = MethodSpec(family="sl", delta=1.0)
    assert sieve_consistent(f, build_sieve(x3, spec), build_sieve(y, spec))


def test_sieve_consistent_detects_corruption(x3):
    y = FiniteMetricSpace(["u", "v"], [[0.0, 1.0], [1.0, 0.0]])
    f = MetricMap(x3, y, {"a": "u", "b": "u", "c": "v"})
    spec = MethodSpec(family="sl", delta=1.0)
    sx = build_sieve(x3, spec)
    sy = build_sieve(y, spec)
    # corrupt the image profile: pretend u, v never merge
    frozen = Sieve(y.labels, (0.0,), (Cover(y.labels, [("u",), ("v",)]),))
    assert sieve_consistent(f, sx, sy)
    assert not sieve_consistent(f, sx, frozen)


def test_block_births(x3):
    sieve = build_sieve(x3, MethodSpec(family="ml", delta=1.0))
    births = dict(block_births(sieve))
    assert births[("a", "b", "c")] == 2.0
    assert births[("a", "b")] == 1.0
    assert births[("a",)] == 0.0
    ordered = [birth for _, birth in block_births(sieve)]
    assert ordered == sorted(ordered)


def test_is_dendrogram(x3):
    assert is_dendrogram(build_sieve(x3, MethodSpec(family="sl", delta=1.0)))
    assert not is_dendrogram(build_sieve(x3, MethodSpec(family="ml", delta=1.0)))


def test_sieve_dict_roundtrip(bowtie):
    sieve = build_sieve(bowtie, MethodSpec(family="ml", delta=1.0))
    data = sieve.to_dict()
    assert set(data) == {"base", "breakpoints", "covers"}
    assert isinstance(data["covers"][0], list)
    again = Sieve.from_dict(data)
    assert again == sieve


def test_sieve_from_dict_validation():
    with pytest.raises((ValueError, KeyError)):
        Sieve.from_dict({"base": ["a"], "breakpoints": [], "covers": []})


@pytest.mark.parametrize(
    "data, key",
    [
        ({"base": "ab", "breakpoints": [0.0], "covers": [[["a", "b"]]]}, "base"),
        ({"base": [1], "breakpoints": [0.0], "covers": [[["1"]]]}, "base"),
        ({"base": None, "breakpoints": [0.0], "covers": [[["a"]]]}, "base"),
        ({"base": ["a"], "breakpoints": [0.0], "covers": "a"}, "covers"),
        ({"base": ["a"], "breakpoints": [0.0], "covers": [["a"]]}, "covers"),
        ({"base": ["a"], "breakpoints": [0.0], "covers": [[[1]]]}, "covers"),
    ],
)
def test_sieve_from_dict_requires_lists_of_strings(data, key):
    with pytest.raises(ValueError, match=repr(key)):
        Sieve.from_dict(data)


@pytest.mark.parametrize("breakpoints", ["0", ["0"], [None], [False]])
def test_sieve_from_dict_requires_numeric_breakpoints(breakpoints):
    data = {"base": ["a"], "breakpoints": breakpoints, "covers": [[["a"]]]}
    with pytest.raises(ValueError, match="'breakpoints'"):
        Sieve.from_dict(data)
    assert Sieve.from_dict({**data, "breakpoints": [0]}).breakpoints == (0.0,)


def test_random_spaces_produce_valid_sieves():
    for seed in range(12):
        x = random_metric(3 + seed % 5, 8800 + seed, "closure-of-random-matrix")
        spec = MethodSpec(family="ml", delta=1.0)
        sieve = build_sieve(x, spec)
        assert sieve.breakpoints[0] == 0.0
        assert sieve.terminal_trivial()
        assert all(
            b1 < b2 for b1, b2 in zip(sieve.breakpoints, sieve.breakpoints[1:])
        )
        report = check_sieve_axioms(sieve)
        assert report.is_sieve


def test_build_sieve_requires_scale_family():
    x = FiniteMetricSpace(["p"], [[0.0]])
    lam = FiniteMetricSpace(["s", "t"], [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        build_sieve(x, MethodSpec(family="generated", test_spaces=(lam,)))


# every threshold family, at the levels where they differ
SWEEP_SPECS = [
    MethodSpec(family="sl"),
    MethodSpec(family="ml"),
    MethodSpec(family="l", k=2, budget=math.inf),
    MethodSpec(family="l", k=3, budget=0.8),
    MethodSpec(family="l", k=math.inf, budget=0.8),
    MethodSpec(family="vl", k=2),
    MethodSpec(family="vl", k=3),
    MethodSpec(family="el", k=2),
    MethodSpec(family="el", k=2, clique_exception=True),
    MethodSpec(family="el", k=3, clique_exception=True),
    MethodSpec(family="bk", k=2),
    MethodSpec(family="bkstar", k=1),
    MethodSpec(family="bkstar", k=2),
]


def _assert_matches_dense(x, spec):
    assert build_sieve(x, spec) == _dense_sieve(x, spec), (x.to_dict(), spec.label())


@pytest.mark.parametrize("spec", SWEEP_SPECS, ids=MethodSpec.label)
def test_breakpoint_search_matches_dense_sweep_on_criterion_9_spaces(spec):
    for i in range(100):
        x = random_metric(3 + i % 6, derive_seed(1009, i), METRIC_MODES[i % 3])
        _assert_matches_dense(x, spec)


@pytest.mark.parametrize("spec", SWEEP_SPECS, ids=MethodSpec.label)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(METRIC_MODES),
)
def test_breakpoint_search_matches_dense_sweep_on_random_spaces(spec, n, seed, mode):
    _assert_matches_dense(random_metric(n, seed, mode), spec)


@pytest.mark.parametrize("spec", SWEEP_SPECS, ids=MethodSpec.label)
@given(
    points=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=8, unique=True
    ),
    norm=st.sampled_from(["manhattan", "chebyshev"]),
)
def test_breakpoint_search_matches_dense_sweep_with_tied_distances(spec, points, norm):
    # integer points under these norms repeat distances heavily
    _assert_matches_dense(space_from_points(points, metric=norm), spec)


# the families swept by keeping maximal cliques up to date
CLIQUE_SPECS = [s for s in SWEEP_SPECS if s.family in ("ml", "l", "bk", "bkstar")]


@pytest.mark.parametrize("spec", CLIQUE_SPECS, ids=MethodSpec.label)
@settings(max_examples=25)
@given(
    points=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=20, max_size=30, unique=True
    ),
    norm=st.sampled_from(["manhattan", "chebyshev"]),
)
def test_clique_sweep_matches_dense_sweep_on_lattices(spec, points, norm):
    # 20-30 points at few distinct distances: each scale adds many pairs
    # at once, so cliques are born and absorbed within one batch
    _assert_matches_dense(space_from_points(points, metric=norm), spec)


@pytest.mark.parametrize("spec", CLIQUE_SPECS, ids=MethodSpec.label)
def test_clique_sweep_matches_dense_sweep_on_25_points(spec):
    for i, mode in enumerate(METRIC_MODES):
        _assert_matches_dense(random_metric(25, derive_seed(2501, i), mode), spec)


def test_maximal_linkage_sieve_at_60_points_is_fast():
    x = random_metric(60, 1)
    start = time.perf_counter()
    data = build_sieve(x, MethodSpec(family="ml")).to_dict()
    assert time.perf_counter() - start < 3.0
    assert len(data["breakpoints"]) == len(x.pairwise_distances()) + 1
    assert data["covers"][-1] == [list(x.labels)]


def test_clique_sweep_keeps_the_monotonicity_guard(monkeypatch, x3):
    complete = [0b110, 0b101, 0b011]

    def complete_then_empty(x, spec, delta, start=None):
        return complete if delta < 2.0 else [0, 0, 0]

    monkeypatch.setattr(sieves, "_linked_relation", complete_then_empty)
    with pytest.raises(MonotonicityViolation) as exc:
        build_sieve(x3, MethodSpec(family="bk", k=2))
    assert (exc.value.index, exc.value.scale) == (0, 2.0)


def test_sieve_from_lifetimes_refuses_equal_neighbours():
    base = ("a", "b")
    whole, a, b = 0b11, 0b01, 0b10
    sieve = Sieve._from_lifetimes(base, [0.0, 1.0], [(a, 0, 1), (b, 0, 1), (whole, 1, 2)])
    assert sieve == Sieve(base, [0.0, 1.0], [Cover(base, ["a", "b"]), Cover(base, ["ab"])])
    with pytest.raises(ValueError, match="breakpoints 1 and 2 are equal"):
        Sieve._from_lifetimes(base, [0.0, 1.0, 2.0], [(a, 0, 1), (b, 0, 1), (whole, 1, 3)])


@pytest.mark.parametrize("spec", SWEEP_SPECS, ids=MethodSpec.label)
def test_breakpoint_search_matches_dense_sweep_on_named_spaces(spec, x3, bowtie, four_cycle):
    simplex = FiniteMetricSpace(list("abcde"), [[0 if i == j else 1 for j in range(5)] for i in range(5)])
    for x in (FiniteMetricSpace(["p"], [[0.0]]), x3, bowtie, four_cycle, simplex):
        _assert_matches_dense(x, spec)


def test_breakpoint_search_evaluates_each_scale_once_and_skips_constant_runs(monkeypatch):
    calls = []
    real = sieves.evaluate_method

    def counting(x, spec):
        calls.append(spec.delta)
        return real(x, spec)

    monkeypatch.setattr(sieves, "evaluate_method", counting)
    x = random_metric(40, 4242, "euclidean-points")
    sieve = build_sieve(x, MethodSpec(family="sl"))
    candidates = len(x.pairwise_distances()) + 1
    assert len(sieve.breakpoints) == 40
    assert len(set(calls)) == len(calls)
    # each breakpoint lies in one split interval per bisection level
    assert len(calls) <= 2 + len(sieve.breakpoints) * math.ceil(math.log2(candidates))
    assert len(calls) < candidates // 2


def test_breakpoint_search_keeps_the_monotonicity_guard(monkeypatch, x3):
    whole = FlagCover(x3.labels, [x3.labels])
    singles = FlagCover(x3.labels, [(v,) for v in x3.labels])

    def coarse_then_fine(x, spec):
        return whole if spec.delta < 2.0 else singles

    monkeypatch.setattr(sieves, "evaluate_method", coarse_then_fine)
    with pytest.raises(MonotonicityViolation) as exc:
        build_sieve(x3, MethodSpec(family="sl"))
    assert (exc.value.index, exc.value.scale) == (0, 2.0)
