"""Slow exact paths that the tests check the fast ones against."""

from sievecluster import MonotonicityViolation, Sieve, evaluate_method
from sievecluster.covers import refines
from sievecluster.sieves import _candidate_scales


def dense_sieve(x, spec):
    """The sieve of a threshold family by evaluating it at every candidate
    scale (0 and each distinct distance), keeping the first of each run of
    equal covers.

    Oracle for build_sieve. Both take each family's relation from
    functors._linked_relation, but this walk evaluates every scale afresh,
    so it checks independently what the builder adds: the bisection, the
    incremental clique sweep, closure resumption and ml's batches. Raises
    MonotonicityViolation (index of the earlier stored cover, scale of the
    later) when a cover is not refined by the last distinct one before it.
    """
    bps, covers = [], []
    for scale in _candidate_scales(x):
        cover = evaluate_method(x, spec.with_delta(scale))
        if covers and cover == covers[-1]:
            continue
        if covers and not refines(covers[-1], cover):
            raise MonotonicityViolation(len(covers) - 1, scale)
        bps.append(scale)
        covers.append(cover)
    return Sieve(x.labels, bps, covers)
