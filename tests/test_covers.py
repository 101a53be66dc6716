"""Covers, flag covers, relations, refinement, and flagification."""

import pytest
from hypothesis import given, strategies as st

from sievecluster import (
    BaseMismatch,
    Cover,
    FlagCover,
    NestedCover,
    Relation,
    co_blocking,
    flagify,
    is_consistent_map,
    is_flag,
    maximal_linked_sets,
    preimage_cover,
    reduce_to_maximal,
    refines,
)
from sievecluster.errors import InvalidArgument
from sievecluster.verify import brute_force_maximal_linked


def test_cover_canonicalizes_blocks():
    c = Cover(("b", "a", "c"), [("c", "b"), ("a",), ("b", "c")])
    assert c.base == ("a", "b", "c")
    assert c.blocks == (("a",), ("b", "c"))  # duplicates collapse, sorted


def test_cover_must_cover():
    with pytest.raises(ValueError):
        Cover(("a", "b"), [("a",)])
    with pytest.raises(ValueError):
        Cover(("a",), [("a", "b")])
    with pytest.raises(ValueError):
        Cover(("a",), [()])


def test_flag_cover_rejects_nested():
    with pytest.raises(NestedCover):
        FlagCover(("a", "b"), [("a",), ("a", "b")])


def test_flag_cover_rejects_missing_clique():
    # three pairwise co-blocked points whose triangle is absent
    with pytest.raises(ValueError):
        FlagCover(("a", "b", "c"), [("a", "b"), ("b", "c"), ("a", "c")])


def test_partitions_are_flag():
    c = FlagCover(("a", "b", "c"), [("a", "b"), ("c",)])
    assert c.is_partition()
    assert is_flag(c)


def test_is_flag_raises_on_nested():
    nested = Cover(("a", "b"), [("a",), ("a", "b")])
    with pytest.raises(NestedCover):
        is_flag(nested)


def test_reduce_to_maximal():
    c = Cover(("a", "b", "c"), [("a",), ("a", "b"), ("b", "c"), ("c",)])
    r = reduce_to_maximal(c)
    assert r.blocks == (("a", "b"), ("b", "c"))


def test_flagify_closes_triangle():
    c = Cover(("a", "b", "c"), [("a", "b"), ("b", "c"), ("a", "c")])
    assert flagify(c).blocks == (("a", "b", "c"),)


def test_flagify_fixes_nothing_on_flag_input():
    c = FlagCover(("a", "b", "c"), [("a", "b"), ("b", "c")])
    assert flagify(c) == c


def test_co_blocking_pairs():
    c = Cover(("a", "b", "c"), [("a", "b"), ("b", "c")])
    rel = co_blocking(c)
    assert rel.related("a", "b")
    assert rel.related("b", "c")
    assert not rel.related("a", "c")
    assert rel.related("a", "a")  # reflexive by convention


def test_relation_pairs_equality_and_repr():
    rel = Relation(("c", "a", "b"), [("b", "a"), ("c", "b"), ("a", "a")])
    assert rel.pairs() == (("a", "b"), ("b", "c"))
    assert rel == Relation(("a", "b", "c"), [("a", "b"), ("b", "c")])
    assert rel != Relation(("a", "b", "c"), [("a", "b")])
    assert rel != Relation(("a", "b", "d"), [("a", "b"), ("b", "d")])
    assert rel != "rel"
    assert repr(rel) == "Relation(3 points, 2 pairs)"


def test_cover_repr():
    assert repr(Cover(["a", "b", "c"], [["a", "b"], ["c"]])) == "Cover(2 blocks on 3 points)"
    assert repr(FlagCover(["a", "b"], [["a", "b"]])) == "FlagCover(1 blocks on 2 points)"


def test_maximal_linked_sets_on_path_relation():
    rel = Relation(("a", "b", "c"), [("a", "b"), ("b", "c")])
    assert maximal_linked_sets(rel).blocks == (("a", "b"), ("b", "c"))


def test_maximal_linked_sets_complete():
    rel = Relation(
        ("a", "b", "c", "d"),
        [(x, y) for x in "abcd" for y in "abcd" if x < y],
    )
    assert maximal_linked_sets(rel).blocks == (("a", "b", "c", "d"),)


def test_refines_basics():
    base = ("a", "b", "c")
    fine = Cover(base, [("a",), ("b",), ("c",)])
    mid = Cover(base, [("a", "b"), ("b", "c")])
    coarse = Cover(base, [("a", "b", "c")])
    assert refines(fine, mid) and refines(mid, coarse) and refines(fine, coarse)
    assert not refines(coarse, fine)
    assert refines(mid, mid)
    with pytest.raises(BaseMismatch):
        refines(fine, Cover(("a", "b"), [("a", "b")]))


def test_preimage_cover_with_mapping():
    cover_y = Cover(("u", "v"), [("u",), ("v",)])
    f = {"a": "u", "b": "u", "c": "v"}
    pre = preimage_cover(f, cover_y)
    assert pre.blocks == (("a", "b"), ("c",))


def test_preimage_drops_empty_blocks():
    cover_y = Cover(("u", "v"), [("u",), ("v",)])
    f = {"a": "u", "b": "u"}
    pre = preimage_cover(f, cover_y)
    assert pre.blocks == (("a", "b"),)


def test_is_consistent_map():
    base = ("a", "b", "c")
    f = {"a": "u", "b": "u", "c": "v"}
    cx_fine = Cover(base, [("a",), ("b",), ("c",)])
    cy = Cover(("u", "v"), [("u",), ("v",)])
    assert is_consistent_map(f, cx_fine, cy)
    cx_bad = Cover(base, [("a", "c"), ("b",)])
    assert not is_consistent_map(f, cx_bad, cy)


def test_cover_dict_roundtrip():
    c = FlagCover(("a", "b", "c"), [("a", "b"), ("c",)])
    again = FlagCover.from_dict(c.to_dict())
    assert again == c
    assert c.to_dict() == {"base": ["a", "b", "c"], "clusters": [["a", "b"], ["c"]]}


@pytest.mark.parametrize(
    "data, key",
    [
        ({"base": "ab", "clusters": "ab"}, "base"),
        ({"base": ["a", "b"], "clusters": "ab"}, "clusters"),
        ({"base": [1, 2], "clusters": [["1", "2"]]}, "base"),
        ({"base": None, "clusters": [["a"]]}, "base"),
        ({"base": ["a", "b"], "clusters": [["a", "b"], "a"]}, "clusters"),
        ({"base": ["a", "b"], "clusters": [["a", 2]]}, "clusters"),
        ({"base": ["a"], "clusters": None}, "clusters"),
    ],
)
def test_cover_from_dict_requires_lists_of_strings(data, key):
    with pytest.raises(ValueError, match=repr(key)):
        Cover.from_dict(data)


@pytest.mark.parametrize("data", [None, "base clusters", ["base", "clusters"], 3])
def test_cover_from_dict_requires_an_object(data):
    # None used to raise TypeError: argument of type 'NoneType' is not iterable
    with pytest.raises(InvalidArgument, match="^cover JSON needs 'base' and 'clusters'$"):
        Cover.from_dict(data)


def test_cover_constructor_still_takes_any_iterables():
    c = Cover(iter("ba"), ({"a"}, ("b",)))
    assert c.to_dict() == {"base": ["a", "b"], "clusters": [["a"], ["b"]]}


@st.composite
def relations(draw):
    n = draw(st.integers(1, 8))
    base = tuple(f"v{i}" for i in range(n))
    pairs = [
        (base[i], base[j])
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    return Relation(base, pairs)


@given(relations())
def test_maximal_linked_sets_matches_brute_force(rel):
    assert maximal_linked_sets(rel) == brute_force_maximal_linked(rel)


@given(relations())
def test_maximal_linked_sets_is_flag_of_its_relation(rel):
    cover = maximal_linked_sets(rel)
    # the co-blocking relation of the result is the original relation
    # restricted to pairs that appear inside blocks; every related pair
    # lands in some block (pairs are linked sets), so they agree
    cb = co_blocking(cover)
    for a in rel.base:
        for b in rel.base:
            if a != b:
                assert cb.related(a, b) == rel.related(a, b)


@st.composite
def covers(draw):
    """Arbitrary covers, nested and overlapping blocks allowed."""
    n = draw(st.integers(1, 8))
    base = tuple(f"v{i}" for i in range(n))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=6))
    covered = 0
    for m in masks:
        covered |= m
    masks += [1 << v for v in range(n) if not covered >> v & 1]
    return Cover.from_masks(base, masks)


def _assert_checked_flag(cover):
    """Kernel outputs skip validation; the validating constructor must
    accept the same blocks and give the same cached masks."""
    assert is_flag(cover)
    checked = FlagCover(cover.base, cover.blocks)
    assert checked == cover
    assert checked.masks() == cover.masks()


@given(relations())
def test_maximal_linked_sets_output_passes_flag_check(rel):
    _assert_checked_flag(maximal_linked_sets(rel))


@given(covers())
def test_flagify_output_passes_flag_check(cover):
    _assert_checked_flag(flagify(cover))


def test_kernel_cover_on_unsorted_base_is_canonical():
    # c ~ a, b alone, on a base given out of order
    rel = Relation.from_masks(("c", "a", "b"), [0b010, 0b001, 0])
    cover = maximal_linked_sets(rel)
    assert cover.base == ("a", "b", "c")
    assert cover == FlagCover(("a", "b", "c"), [("a", "c"), ("b",)])
