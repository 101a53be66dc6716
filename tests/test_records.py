"""The public records: MethodSpec, ProbeResult, SieveAxiomReport and
TrialReport. Their repr, equality, hashing and construction are pinned as
the dataclasses they once were gave them."""

import copy
import math
import pickle

import pytest

from sievecluster import MethodSpec, ProbeResult, SieveAxiomReport, TrialReport
from sievecluster.metric import path_space

FROZEN = [
    MethodSpec("ml", 0.3),
    MethodSpec("l", 1.5, k=math.inf, budget=2.0),
    MethodSpec("el", delta=1, k=2, clique_exception=True),
    MethodSpec("generated", test_spaces=[path_space(1, 0.3)]),
    ProbeResult(0.5, True),
    SieveAxiomReport(((1, 0.5),), False),
]

# recorded when the records were dataclasses
REPRS = [
    "MethodSpec(family='ml', delta=0.3, k=None, budget=None, test_spaces=(), "
    "clique_exception=False)",
    "MethodSpec(family='l', delta=1.5, k=inf, budget=2.0, test_spaces=(), "
    "clique_exception=False)",
    "MethodSpec(family='el', delta=1, k=2, budget=None, test_spaces=(), "
    "clique_exception=True)",
    "MethodSpec(family='generated', delta=None, k=None, budget=None, "
    "test_spaces=(FiniteMetricSpace(2 points, diameter 0.3),), clique_exception=False)",
    "ProbeResult(delta_f=0.5, boundary_merged=True)",
    "SieveAxiomReport(refinement_violations=((1, 0.5),), terminal_trivial=False)",
]

FIELDS = {
    MethodSpec: ("family", "delta", "k", "budget", "test_spaces", "clique_exception"),
    ProbeResult: ("delta_f", "boundary_merged"),
    SieveAxiomReport: ("refinement_violations", "terminal_trivial"),
}


def _report(**extra):
    return TrialReport("functoriality", {"family": "ml"}, "met", 3, [], 7, 0.125, **extra)


def test_repr_is_the_dataclass_repr():
    assert [repr(r) for r in FROZEN] == REPRS
    assert repr(_report()) == (
        "TrialReport(check='functoriality', method={'family': 'ml'}, category='met', "
        "trials=3, violations=[], seed=7, elapsed=0.125, extra={})"
    )
    report = TrialReport("counterexample", {}, None, 1, [{"a": 1}], 0, 0.0, extra={"found": True})
    assert repr(report) == (
        "TrialReport(check='counterexample', method={}, category=None, trials=1, "
        "violations=[{'a': 1}], seed=0, elapsed=0.0, extra={'found': True})"
    )


@pytest.mark.parametrize("record", FROZEN, ids=lambda r: type(r).__name__)
def test_frozen_records_compare_and_hash_by_fields(record):
    fields = tuple(getattr(record, name) for name in FIELDS[type(record)])
    twin = type(record)(*fields)
    assert twin == record and not twin != record and hash(twin) == hash(record)
    assert hash(record) == hash(fields)
    assert record != fields and fields != record
    assert record != object()
    assert {record, twin} == {record}
    assert copy.copy(record) == record and copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("record", FROZEN, ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_assignment(record):
    name = FIELDS[type(record)][0]
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert repr(record) == before


def test_records_of_different_classes_differ():
    assert ProbeResult(0.5, True) != SieveAxiomReport(0.5, True)
    assert MethodSpec("ml", 0.3) != MethodSpec("ml", 0.4)
    assert MethodSpec("vl", 1.0, k=2) != MethodSpec("vl", 1.0, k=3)


def test_keyword_and_positional_construction_agree():
    assert MethodSpec("l", 1.0, 2, 0.5) == MethodSpec(family="l", delta=1.0, k=2, budget=0.5)
    assert MethodSpec("el", 1.0, 2, None, (), True) == MethodSpec(
        "el", k=2, delta=1.0, clique_exception=True
    )
    assert MethodSpec("sl") == MethodSpec("sl", None, None, None, (), False)
    assert ProbeResult(delta_f=1.0, boundary_merged=False) == ProbeResult(1.0, False)
    assert SieveAxiomReport(terminal_trivial=True, refinement_violations=()) == SieveAxiomReport(
        (), True
    )
    assert _report(extra={"a": 1}) == TrialReport(
        check="functoriality", method={"family": "ml"}, category="met", trials=3,
        violations=[], seed=7, elapsed=0.125, extra={"a": 1},
    )
    with pytest.raises(TypeError):
        MethodSpec()
    with pytest.raises(TypeError):
        ProbeResult(1.0)
    with pytest.raises(TypeError):
        MethodSpec("ml", 0.3, famly="sl")


def test_method_spec_still_validates():
    spaces = [path_space(1, 0.3)]
    assert MethodSpec("generated", test_spaces=spaces).test_spaces == tuple(spaces)
    for kw in (
        {"family": "zz"},
        {"family": "ml", "delta": -1.0},
        {"family": "ml", "delta": math.nan},
        {"family": "vl", "delta": 1.0},
        {"family": "vl", "delta": 1.0, "k": 0},
        {"family": "vl", "delta": 1.0, "k": True},
        {"family": "ml", "delta": 1.0, "k": 2},
        {"family": "l", "delta": 1.0, "k": 2, "budget": -1.0},
        {"family": "ml", "delta": 1.0, "budget": 1.0},
        {"family": "generated"},
        {"family": "ml", "delta": 1.0, "test_spaces": spaces},
        {"family": "vl", "delta": 1.0, "k": 2, "clique_exception": True},
    ):
        with pytest.raises(ValueError):
            MethodSpec(**kw)


def test_with_delta_replaces_only_delta():
    spec = MethodSpec("el", 1.0, k=3, clique_exception=True)
    moved = spec.with_delta(2.5)
    assert moved == MethodSpec("el", 2.5, k=3, clique_exception=True)
    assert type(moved) is MethodSpec and spec.delta == 1.0
    assert MethodSpec("sl").with_delta(0.0).delta == 0.0
    generated = MethodSpec("generated", test_spaces=[path_space(1, 0.3)])
    assert generated.with_delta(1.0).test_spaces == generated.test_spaces
    with pytest.raises(ValueError):
        spec.with_delta(-1.0)


def test_trial_report_is_mutable_and_unhashable():
    first, second = _report(), _report()
    assert first.extra == {} and first.extra is not second.extra
    first.extra["found"] = True
    assert second.extra == {} and first != second
    first.trials = 4
    assert first.trials == 4
    with pytest.raises(TypeError):
        hash(first)
    assert first != (first.check, first.method)
