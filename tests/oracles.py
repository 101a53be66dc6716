"""Slow exact paths that the tests check the fast ones against."""

import math

import numpy as np

from sievecluster import MonotonicityViolation, Sieve, evaluate_method, metric
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


def min_plus_step_relation(x, delta, k, budget):
    """The relation of functors._step_relation by min-plus matrix powers:
    steps of length at most delta, at most k of them (k may be inf), and
    the pairs whose cheapest total is at most budget (reachable at all
    when budget is inf). Adjacency masks, one per point.

    Oracle for the relaxation from each point that the package runs: the
    powers extend every total each round, in numpy, until none changes.
    """
    n = x.n
    steps = n - 1 if k == math.inf else min(k, n - 1)
    w = np.where(x.dist <= delta, x.dist, np.inf)
    np.fill_diagonal(w, 0.0)
    dist = w.copy()
    for _ in range(steps - 1):
        nxt = dist.copy()
        metric._min_plus(nxt, dist, w)
        if np.array_equal(nxt, dist):
            break
        dist = nxt
    related = dist < np.inf if budget == math.inf else dist <= budget
    return [sum(1 << int(j) for j in np.flatnonzero(row) if j != i) for i, row in enumerate(related)]
