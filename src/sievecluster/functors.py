"""The clustering families and the two-point scale probe.

Every method maps a finite metric space to a flag cover of its points at a
scale delta (thresholds are inclusive): the maximal linked sets of one
relation on the points. Families, by that relation:

* ``sl``   single linkage: connected components of the threshold graph.
* ``ml``   maximal linkage: maximal sets with all pairwise distances <= delta.
* ``l``    step linkage: relate points joined by at most k steps of length
           <= delta each, with optional total length budget K. k = 1 is
           ml and k = K = inf is sl.
* ``vl``   vertex-connectivity linkage at level k of the threshold graph.
* ``el``   edge-connectivity linkage at level k (a partition by default).
* ``bk`` / ``bkstar``  maximal cliques after saturating the threshold graph
           under the strict / relaxed k-anchored edge rule.
* ``generated``  relate x, y when some non-expansive probe from a small
           test space lands on both.

``_linked_relation`` is the one definition of each threshold family's
relation. ``evaluate_method`` takes its maximal cliques, ``build_sieve``
sweeps it over all scales, and each public per-family function is one
call of ``evaluate_method``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable

from . import _bitops
from ._names import FAMILIES
from .covers import (
    Cover,
    FlagCover,
    Relation,
    _co_blocking_masks,
    co_blocking,
    maximal_linked_sets,
)
from .errors import SearchBudgetExceeded, TrivialFunctor
from .graphs import (
    Graph,
    _check_level,
    max_edge_connected_subgraphs,
    max_vertex_connected_subgraphs,
    space_from_graph,
    threshold_graph,
)
from .metric import (
    REL_TOL,
    FiniteMetricSpace,
    _min_plus,
    _nonexpansive_assignments,
    _numpy,
    path_space,
)

_NEEDS_K = {"l", "vl", "el", "bk", "bkstar"}
_GENERATED_POINT_CAP = 6
_GENERATED_LEAF_CAP = 10_000_000


@dataclass(frozen=True)
class MethodSpec:
    """A clustering method: family plus parameters.

    ``delta`` may be left None when the record parameterizes a scale sweep
    (the sieve builder supplies scales); flat evaluation requires it.
    ``budget`` is the total path length bound for the l family (JSON key
    "K"). ``test_spaces`` parameterizes the generated family.
    """

    family: str
    delta: float | None = None
    k: int | float | None = None
    budget: float | None = None
    test_spaces: tuple[FiniteMetricSpace, ...] = field(default=())
    clique_exception: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.delta is not None and not self.delta >= 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta!r}")
        if self.family in _NEEDS_K:
            if self.k is None:
                raise ValueError(f"family {self.family!r} requires k")
            _check_level(self.k)
        elif self.k is not None:
            raise ValueError(f"family {self.family!r} takes no k")
        if self.family == "l":
            if self.budget is not None and not self.budget >= 0:
                raise ValueError("budget K must be nonnegative")
        elif self.budget is not None:
            raise ValueError(f"family {self.family!r} takes no budget")
        if self.family == "generated":
            if not self.test_spaces:
                raise ValueError("generated family requires at least one test space")
            object.__setattr__(self, "test_spaces", tuple(self.test_spaces))
        elif self.test_spaces:
            raise ValueError(f"family {self.family!r} takes no test spaces")
        if self.clique_exception and self.family != "el":
            raise ValueError("clique_exception applies to the el family only")

    def with_delta(self, delta: float) -> "MethodSpec":
        return replace(self, delta=delta)

    def label(self) -> str:
        bits = [self.family]
        if self.k is not None:
            bits.append(f"k={'inf' if self.k == math.inf else self.k}")
        if self.budget is not None:
            bits.append(f"K={'inf' if self.budget == math.inf else format(self.budget, 'g')}")
        if self.clique_exception:
            bits.append("clique-exception")
        head = bits[0] if len(bits) == 1 else f"{bits[0]}[{', '.join(bits[1:])}]"
        if self.delta is not None:
            head += f"@{format(self.delta, 'g')}"
        return head

    def to_dict(self) -> dict:
        out: dict = {"family": self.family}
        if self.delta is not None:
            out["delta"] = self.delta
        if self.k is not None:
            out["k"] = "inf" if self.k == math.inf else self.k
        if self.budget is not None:
            out["K"] = "inf" if self.budget == math.inf else self.budget
        if self.test_spaces:
            out["test_spaces"] = [t.to_dict() for t in self.test_spaces]
        if self.clique_exception:
            out["clique_exception"] = True
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MethodSpec":
        def num(v, what):
            if v == "inf":
                return math.inf
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"{what} must be a number or 'inf'")
            return v

        k = data.get("k")
        if k is not None:
            k = num(k, "k")
            if k != math.inf:
                if k != int(k):
                    raise ValueError("k must be an integer or 'inf'")
                k = int(k)
        budget = data.get("K")
        if budget is not None:
            budget = float(num(budget, "K"))
        tests = tuple(FiniteMetricSpace.from_dict(t) for t in data.get("test_spaces", []))
        return cls(
            family=data["family"],
            delta=data.get("delta"),
            k=k,
            budget=budget,
            test_spaces=tests,
            clique_exception=bool(data.get("clique_exception", False)),
        )


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of the two-point scale probe."""

    delta_f: float
    boundary_merged: bool


def _step_relation(x: FiniteMetricSpace, delta: float, k, budget) -> list[int]:
    """Adjacency masks relating points joined by <= k steps of length
    <= delta, total <= budget. The parameters are MethodSpec's, checked there.

    Steps may repeat points (a zero-length stay), so "within k steps" and
    "exactly k steps" coincide and the relation grows monotonically in all
    three parameters.
    """
    n = x.n
    if budget == math.inf:
        adj = x._adjacency(delta)
        if k == 1:
            return adj
        if k == math.inf:  # linked within one component
            return _co_blocking_masks(n, _bitops.components(adj))
        rel = []
        for v in range(n):
            reached = frontier = 1 << v
            for _ in range(k):
                grow = 0
                for u in _bitops.bits(frontier):
                    grow |= adj[u]
                frontier = grow & ~reached
                if not frontier:
                    break
                reached |= frontier
            rel.append(reached & ~(1 << v))
        return rel
    # finite budget: cheapest total length over <= k steps, then threshold
    steps = n - 1 if k == math.inf else min(k, n - 1)
    np = _numpy(n)
    if np is None:
        # from each point, one round of steps at a time; a round extends only
        # the totals that fell in the round before (the others were extended
        # already), so each total is the one the numpy products reach
        near = [
            [(j, v) for j, v in enumerate(row) if v <= delta and j != i]
            for i, row in enumerate(x._rows())
        ]
        rel = []
        for i in range(n):
            best = [math.inf] * n
            best[i] = 0.0
            fell = {i: 0.0}
            for _ in range(steps):
                lower = {}
                for u, total in fell.items():
                    for j, v in near[u]:
                        s = total + v
                        if s < best[j] and s < lower.get(j, math.inf):
                            lower[j] = s
                if not lower:
                    break
                for j, s in lower.items():
                    best[j] = s
                fell = lower
            rel.append(sum(1 << j for j, v in enumerate(best) if v <= budget and j != i))
        return rel
    w = np.where(x.dist <= delta, x.dist, np.inf)
    np.fill_diagonal(w, 0.0)
    dist = w.copy()
    for _ in range(steps - 1):
        nxt = dist.copy()
        _min_plus(nxt, dist, w)
        if np.array_equal(nxt, dist):
            break
        dist = nxt
    return _bitops.adjacency_from_bool(dist <= budget)


def k_linkage(x: FiniteMetricSpace, delta: float, k, budget=math.inf) -> FlagCover:
    """Maximal linked sets of the k-step relation at scale delta."""
    return evaluate_method(x, MethodSpec("l", delta, k=k, budget=budget))


def single_linkage(x: FiniteMetricSpace, delta: float) -> FlagCover:
    """Connected components of the threshold graph (k_linkage at k = inf)."""
    return evaluate_method(x, MethodSpec("sl", delta))


def maximal_linkage(x: FiniteMetricSpace, delta: float) -> FlagCover:
    """Maximal cliques of the threshold graph (k_linkage at k = 1)."""
    return evaluate_method(x, MethodSpec("ml", delta))


def vertex_linkage(x: FiniteMetricSpace, delta: float, k) -> FlagCover:
    """Flag completion of the maximal k-vertex-connected subgraphs of the
    threshold graph.

    For k <= 2 (and k >= |X|) the raw family is already a flag cover and
    the completion is the identity. For intermediate k it need not be:
    three blocks can pairwise overlap without their union containing a
    qualifying set, leaving a pairwise co-blocked triple in no block. The
    minimal flag completion restores the output type while preserving the
    refinement chain in k, both of its endpoints, and consistency under
    injective non-expansive maps.
    """
    return evaluate_method(x, MethodSpec("vl", delta, k=k))


def edge_linkage(
    x: FiniteMetricSpace, delta: float, k, clique_exception: bool = False
) -> FlagCover:
    """Maximal k-edge-connected subgraphs of the threshold graph.

    The standard convention yields a partition (always flag); the
    clique-exception variant can need the same flag completion as
    vertex_linkage, so both go through it.
    """
    return evaluate_method(x, MethodSpec("el", delta, k=k, clique_exception=clique_exception))


def bk_clusters(x: FiniteMetricSpace, delta: float, k) -> FlagCover:
    """Maximal cliques after the strict k-anchored closure of the threshold graph."""
    return evaluate_method(x, MethodSpec("bk", delta, k=k))


def bk_star_clusters(x: FiniteMetricSpace, delta: float, k) -> FlagCover:
    """Maximal cliques after the relaxed k-anchored closure."""
    return evaluate_method(x, MethodSpec("bkstar", delta, k=k))


def probe_relation(
    x: FiniteMetricSpace,
    test_spaces: Iterable[FiniteMetricSpace],
    rel_tol: float = REL_TOL,
) -> Relation:
    """Relate x-points co-covered by the image of some non-expansive probe.

    Probes are enumerated by backtracking with pairwise pruning: a partial
    assignment dies as soon as two placed test points sit farther apart in
    the target than in the test space. Image pairs accumulate into the
    relation, and the search stops early once the relation is complete.
    """
    tests = tuple(test_spaces)
    for t in tests:
        if t.n > _GENERATED_POINT_CAP:
            raise SearchBudgetExceeded(
                f"test space has {t.n} points; the probe search allows at most "
                f"{_GENERATED_POINT_CAP}"
            )
    n = x.n
    for t in tests:
        if n ** t.n > _GENERATED_LEAF_CAP:
            raise SearchBudgetExceeded(
                f"probe search of {t.n}-point test space against {n} points "
                f"exceeds the enumeration budget"
            )
    scale = x.diameter() if n else 0.0
    rel = [0] * n
    full = _bitops.full_mask(n)

    def complete() -> bool:
        return all(rel[v] == full & ~(1 << v) for v in range(n))

    for t in tests:
        if complete():
            break
        tol = rel_tol * max(scale, t.diameter())
        for assigned in _nonexpansive_assignments(t, x, tol):
            image = sorted(set(assigned))
            for a_pos in range(len(image)):
                for b_pos in range(a_pos + 1, len(image)):
                    a, b = image[a_pos], image[b_pos]
                    rel[a] |= 1 << b
                    rel[b] |= 1 << a
    return Relation.from_masks(x.labels, rel)


def generated_cluster(
    x: FiniteMetricSpace,
    test_spaces: Iterable[FiniteMetricSpace],
    rel_tol: float = REL_TOL,
) -> FlagCover:
    """Maximal linked sets of the probe relation for the given test spaces."""
    return maximal_linked_sets(probe_relation(x, test_spaces, rel_tol))


def _linked_relation(
    x: FiniteMetricSpace, spec: MethodSpec, delta: float, start: list[int] | None = None
) -> list[int]:
    """Adjacency masks of the relation that defines a threshold method at
    scale delta: the method's cover is the maximal linked sets of it.

    * sl, ml and l: the step relation, linking points joined by at most k
      steps of length <= delta each with total length at most K. sl is
      k = K = inf (the components of the threshold graph), ml is k = 1,
      K = inf (the threshold graph itself).
    * vl and el: the co-blocking relation of the maximal k-vertex- or
      k-edge-connected subgraphs of the threshold graph. Its maximal
      cliques are their flag completion, the least flag cover that they
      refine, so the relation is read off the blocks before completion.
    * bk and bkstar: the closure of the threshold graph under the strict
      or relaxed k-anchored edge rule.

    Every such cover is a flag cover, the maximal cliques of its
    co-blocking relation, so equal relations give equal covers and
    inclusion of relations is refinement of covers. Each relation only
    gains pairs as delta grows: both closure rules are monotone, and a
    vertex set that qualifies for vl or el still qualifies after edges are
    added.

    ``start`` is this relation at a smaller scale. The closures resume
    from it: closing the threshold graph joined with a smaller fixed point
    gives the closure of the threshold graph itself. The other relations
    ignore it.
    """
    family = spec.family
    if family in ("sl", "ml", "l"):
        k = {"sl": math.inf, "ml": 1}.get(family, spec.k)
        budget = math.inf if spec.budget is None else spec.budget
        return _step_relation(x, delta, k, budget)
    if family in ("vl", "el"):
        g = threshold_graph(x, delta)
        if family == "vl":
            blocks = max_vertex_connected_subgraphs(g, spec.k)
        else:
            blocks = max_edge_connected_subgraphs(g, spec.k, clique_exception=spec.clique_exception)
        return _co_blocking_masks(x.n, blocks.masks())
    adj = x._adjacency(delta)
    if start is not None:
        adj = [a | b for a, b in zip(adj, start)]
    return _bitops.closure_bk(adj, spec.k, relaxed=family == "bkstar")


def evaluate_method(x: FiniteMetricSpace, spec: MethodSpec) -> FlagCover:
    """Run one clustering method on one space: the maximal linked sets of
    its relation at its delta (_linked_relation), or of the probe relation
    for the generated family."""
    if spec.family == "generated":
        return generated_cluster(x, spec.test_spaces)
    if spec.delta is None:
        raise ValueError(f"method {spec.label()!r} needs delta for flat evaluation")
    cliques = _bitops.maximal_cliques(_linked_relation(x, spec, spec.delta))
    cover = FlagCover._from_cliques(x.labels, cliques)
    if spec.family == "sl" and not cover.is_partition():
        raise AssertionError("single linkage must produce a partition")
    return cover


def cover_metric(cover: Cover, delta: float) -> FiniteMetricSpace:
    """Metrize a cover's co-blocking graph: co-blocked pairs at delta,
    all other pairs at 2 * delta.

    For a flag cover c and delta > 0, maximal linkage at delta on this
    space returns exactly c, which is the standard witness that every flag
    cover arises from maximal linkage.
    """
    if not delta > 0:
        raise ValueError("cover metrization needs delta > 0")
    return space_from_graph(Graph.from_masks(cover.base, co_blocking(cover).adj), delta)


def _merged_on_two_points(spec: MethodSpec, eps: float) -> bool:
    cover = evaluate_method(path_space(1, eps), spec)
    return len(cover.blocks) == 1


def clustering_parameter(spec: MethodSpec, rel_tol: float = REL_TOL) -> ProbeResult:
    """Largest scale at which the method merges a two-point probe space.

    Evaluates the method on two-point spaces over [0, 2 * delta] (or a
    diameter-derived range for the generated family), bisects the merge
    transition, and snaps the estimate to a declared parameter (delta, the
    budget K, or a test-space distance) when the transition sits within
    tolerance of it. Raises
    TrivialFunctor when the probe never changes over the range: a method
    that never merges (edge connectivity at k >= 2) or never splits has no
    scale parameter to report.
    """
    if spec.family == "generated":
        hi = 2.0 * max((t.diameter() for t in spec.test_spaces), default=0.0)
    else:
        if spec.delta is None:
            raise ValueError("clustering_parameter needs the method's delta")
        hi = 2.0 * spec.delta
        if not math.isfinite(hi):
            raise ValueError(
                "clustering_parameter probes scales up to 2 * delta, which must be "
                f"finite, got delta = {spec.delta!r}"
            )
    if hi <= 0:
        hi = 1.0
    if not _merged_on_two_points(spec, 0.0):
        raise TrivialFunctor(
            f"{spec.label()}: the two-point probe never merges (checked eps = 0)"
        )
    if _merged_on_two_points(spec, hi):
        raise TrivialFunctor(
            f"{spec.label()}: the two-point probe never splits on [0, {hi:g}]"
        )
    lo = 0.0
    top = hi
    for _ in range(80):
        mid = (lo + top) / 2.0
        if mid == lo or mid == top:
            break
        if _merged_on_two_points(spec, mid):
            lo = mid
        else:
            top = mid
    estimate = lo
    snap_targets = [spec.delta, spec.budget]
    for t in spec.test_spaces:
        snap_targets.extend(t.pairwise_distances())
    for cand in snap_targets:
        if cand is None or not math.isfinite(cand):
            continue
        # the transition may sit at cand * (1 + rel_tol) because distance
        # comparisons carry that slack, so the snap window must exceed it
        if abs(estimate - cand) <= max(4.0 * rel_tol * abs(cand), 1e-12):
            estimate = cand
            break
    return ProbeResult(
        delta_f=estimate, boundary_merged=_merged_on_two_points(spec, estimate)
    )
