"""Randomized harness: generators, category checks, witness search, oracles."""

import math

import pytest

from sievecluster import (
    FiniteMetricSpace,
    MethodSpec,
    SplitMix64,
    TooLarge,
    brute_force_maximal_linked,
    check_functoriality,
    check_sandwich,
    find_counterexample,
    flagify,
    iterative_flagify_oracle,
    maximal_linked_sets,
    path_space,
    random_flag_cover,
    random_map,
    random_metric,
    random_morphism,
    relation_from_graph,
    threshold_graph,
    verify_witness,
)
from sievecluster.covers import Cover, Relation
from sievecluster.errors import InvalidArgument
from sievecluster.verify import CATEGORIES, METRIC_MODES


def test_random_metric_modes_and_determinism():
    for mode in METRIC_MODES:
        a = random_metric(6, 42, mode)
        b = random_metric(6, 42, mode)
        assert a == b
        assert a.n == 6
        c = random_metric(6, 43, mode)
        assert a != c  # overwhelmingly likely; pinned by the fixed seeds


def test_random_metric_one_point():
    x = random_metric(1, 0, "euclidean-points")
    assert x.n == 1 and x.diameter() == 0.0


def test_random_metric_labels_are_padded():
    x = random_metric(12, 5, "ultrametric-tree")
    assert all(lbl.startswith("p") and len(lbl) == 3 for lbl in x.labels)


def test_random_flag_cover_properties():
    for seed in range(20):
        cover = random_flag_cover(5, seed)
        assert len(cover.base) == 5
        assert cover == random_flag_cover(5, seed)


def test_random_map_constant_always_exists():
    x = random_metric(5, 1, "euclidean-points")
    y = FiniteMetricSpace(["z"], [[0.0]])
    f = random_map(x, y, seed=3)
    assert f is not None
    assert f.is_nonexpansive()


def test_random_map_identity_case():
    x = random_metric(4, 9, "closure-of-random-matrix")
    f = random_map(x, x, seed=3)
    assert f is not None and f.is_nonexpansive()


def test_random_map_injective_impossible_cases():
    three = random_metric(3, 0, "euclidean-points")
    two = random_metric(2, 0, "euclidean-points")
    assert random_map(three, two, seed=0, require_injective=True) is None
    near = path_space(1, 1.0)
    far = FiniteMetricSpace(["u", "v"], [[0.0, 3.0], [3.0, 0.0]])
    assert random_map(far, near, seed=0, require_injective=True) is not None
    assert random_map(near, far, seed=0, require_injective=True) is None


def test_random_map_refuses_more_than_200000_raw_assignments():
    # 9! = 362,880 injective self-maps of 9 points, and 6**8 = 1,679,616
    # maps of 8 points into 6, are too many to enumerate; the identity is
    # one injective non-expansive map, so None would be wrong
    nine = random_metric(9, 5)
    with pytest.raises(TooLarge, match="got 362,880 for 9 points into 9"):
        random_map(nine, nine, 3, require_injective=True)
    eight, six = random_metric(8, 5), random_metric(6, 5)
    with pytest.raises(TooLarge, match="got 1,679,616 for 8 points into 6"):
        random_map(eight, six, 3)


def test_random_map_enumerates_the_40320_injective_self_maps_of_8_points():
    x = random_metric(8, 5)
    f = random_map(x, x, 3, require_injective=True)
    assert f is not None and f.is_injective() and f.is_nonexpansive()


def test_random_morphism_respects_category():
    for t in range(15):
        x = random_metric(3 + t % 4, 600 + t, METRIC_MODES[t % 3])
        for category in CATEGORIES:
            y, f = random_morphism(x, SplitMix64(700 + t), category)
            assert f.is_nonexpansive()
            if category == "metinj":
                assert f.is_injective()


def test_functoriality_of_threshold_families_on_met():
    for spec in (
        MethodSpec(family="sl", delta=1.0),
        MethodSpec(family="ml", delta=1.0),
        MethodSpec(family="l", delta=1.0, k=2, budget=1.5),
    ):
        report = check_functoriality(spec, trials=30, category="met", seed=11)
        assert report.violations == []
        assert report.trials == 30
        assert report.check == "functoriality"


def test_functoriality_of_connectivity_families_on_injective_maps():
    for spec in (
        MethodSpec(family="vl", delta=1.0, k=2),
        MethodSpec(family="el", delta=1.0, k=2),
        MethodSpec(family="bk", delta=1.0, k=2),
        MethodSpec(family="bkstar", delta=1.0, k=2),
    ):
        report = check_functoriality(spec, trials=30, category="metinj", seed=12)
        assert report.violations == [], spec.label()
        assert report.category == "metinj"


def test_sandwich_check_brackets_builtin_methods():
    for spec in (
        MethodSpec(family="l", delta=1.0, k=2, budget=math.inf),
        MethodSpec(family="vl", delta=1.0, k=2),
        MethodSpec(family="bkstar", delta=1.0, k=2),
    ):
        report = check_sandwich(spec, trials=30, seed=13)
        assert report.violations == []
        assert report.extra["delta_f"] == 1.0


def test_counterexample_found_for_vertex_connectivity():
    witness = find_counterexample(MethodSpec(family="vl", delta=1.0, k=2))
    assert witness is not None
    assert witness["points"] <= 4
    assert verify_witness(witness)


def test_counterexample_found_for_edge_connectivity():
    witness = find_counterexample(MethodSpec(family="el", delta=1.0, k=2))
    assert witness is not None
    assert witness["points"] <= 3
    assert verify_witness(witness)


def test_counterexample_found_for_closure_families():
    for family in ("bk", "bkstar"):
        witness = find_counterexample(MethodSpec(family=family, delta=1.0, k=2))
        assert witness is not None, family
        assert witness["points"] <= 4
        assert verify_witness(witness)


def test_no_counterexample_for_always_consistent_families():
    # bounded to 4 points here to stay fast; the acceptance suite runs the
    # full search depth
    assert find_counterexample(MethodSpec(family="sl", delta=1.0), max_points=4) is None
    assert find_counterexample(MethodSpec(family="ml", delta=1.0), max_points=4) is None


def test_counterexample_argument_validation():
    with pytest.raises(ValueError):
        find_counterexample(MethodSpec(family="sl", delta=0.0))
    with pytest.raises(ValueError):
        find_counterexample(MethodSpec(family="sl", delta=1.0), max_points=8)


@pytest.mark.parametrize("family, k", [("ml", None), ("vl", 2)])
def test_checks_refuse_infinite_delta(family, k):
    # a report carries its method, and JSON has no number for inf
    spec = MethodSpec(family=family, delta=math.inf, k=k)
    for check in (
        lambda: find_counterexample(spec, max_points=3),
        lambda: check_functoriality(spec, 2),
        lambda: check_sandwich(spec, 2),
    ):
        with pytest.raises(ValueError, match="finite delta"):
            check()


def test_checks_refuse_a_negative_trial_count():
    # the reports used to say "trials": -3
    spec = MethodSpec(family="sl", delta=1.0)
    for name, check in (("functoriality", check_functoriality), ("sandwich", check_sandwich)):
        message = f"^{name} check needs a nonnegative number of trials, got -3$"
        with pytest.raises(InvalidArgument, match=message):
            check(spec, -3)
    assert check_functoriality(spec, 0).trials == check_sandwich(spec, 0).trials == 0


def test_counterexample_budget_exhaustion_returns_none():
    assert find_counterexample(MethodSpec(family="vl", delta=1.0, k=2), budget=3) is None


def test_verify_witness_rejects_tampering():
    witness = find_counterexample(MethodSpec(family="vl", delta=1.0, k=2))
    assert witness is not None
    tampered = dict(witness)
    # a genuine witness can never have all-singleton fx (singletons refine
    # every preimage cover), so this always disagrees with the replay
    tampered["fx"] = {
        "base": witness["fx"]["base"],
        "clusters": [[p] for p in witness["fx"]["base"]],
    }
    assert not verify_witness(tampered)


def test_brute_force_maximal_linked_small_example():
    g = threshold_graph(path_space(3, 1.0), 1.0)
    rel = relation_from_graph(g)
    assert brute_force_maximal_linked(rel) == maximal_linked_sets(rel)


def test_brute_force_maximal_linked_size_cap():
    base = [f"v{i:02d}" for i in range(17)]
    rel = Relation(base, [])
    with pytest.raises(TooLarge):
        brute_force_maximal_linked(rel)


def test_iterative_flagify_agrees_with_one_pass():
    for seed in range(40):
        cover = random_flag_cover(6, 9000 + seed)
        # perturb into a possibly non-flag cover by unioning two blocks
        blocks = list(cover.blocks)
        if len(blocks) >= 2:
            blocks.append(tuple(sorted(set(blocks[0]) | set(blocks[1]))))
        raw = Cover(cover.base, blocks)
        assert iterative_flagify_oracle(raw) == flagify(raw)


def test_iterative_flagify_size_cap():
    base = [f"v{i:02d}" for i in range(11)]
    cover = Cover(base, [tuple(base)])
    with pytest.raises(TooLarge):
        iterative_flagify_oracle(cover)


def test_trial_report_serialization():
    report = check_functoriality(
        MethodSpec(family="sl", delta=1.0), trials=5, category="met", seed=2
    )
    data = report.to_dict()
    assert "elapsed" not in data
    assert data["check"] == "functoriality"
    assert data["method"]["family"] == "sl"
    assert data["trials"] == 5 and data["violations"] == []
    timed = report.to_dict(include_elapsed=True)
    assert timed["elapsed"] >= 0.0


def test_trial_report_matches_schema():
    jsonschema = pytest.importorskip("jsonschema")
    from sievecluster.fileio import load_schema

    schema = load_schema("trial_report")
    report = check_functoriality(
        MethodSpec(family="vl", delta=1.0, k=2), trials=3, category="metinj", seed=4
    )
    jsonschema.validate(report.to_dict(), schema)
    jsonschema.validate(report.to_dict(include_elapsed=True), schema)


def test_reports_are_reproducible():
    a = check_functoriality(MethodSpec(family="ml", delta=1.0), trials=10, seed=77)
    b = check_functoriality(MethodSpec(family="ml", delta=1.0), trials=10, seed=77)
    assert a.to_dict() == b.to_dict()
