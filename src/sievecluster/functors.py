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

``_linked_relation`` is the one definition of each family's relation.
``evaluate_method`` takes its maximal cliques, ``build_sieve`` sweeps it
over all scales, the verify harness compares it directly, and each public
per-family function is one call of ``evaluate_method``.
"""

from __future__ import annotations

import math
from typing import Iterable

from . import _bitops
from ._names import FAMILIES, _FrozenRecord, _check_level
from .covers import (
    Cover,
    FlagCover,
    Relation,
    _co_blocking_masks,
    co_blocking,
    maximal_linked_sets,
)
from .errors import InvalidArgument, SearchBudgetExceeded, TrivialFunctor
from .metric import REL_TOL, FiniteMetricSpace, _nonexpansive_assignments, path_space

_NEEDS_K = {"l", "vl", "el", "bk", "bkstar"}
_GENERATED_POINT_CAP = 6
_GENERATED_LEAF_CAP = 10_000_000


class MethodSpec(_FrozenRecord):
    """A clustering method: family plus parameters.

    ``delta`` may be left None when the record parameterizes a scale sweep
    (the sieve builder supplies scales); flat evaluation requires it.
    ``budget`` is the total path length bound for the l family (JSON key
    "K"). ``test_spaces`` parameterizes the generated family.
    """

    __slots__ = ("family", "delta", "k", "budget", "test_spaces", "clique_exception")

    def __init__(
        self,
        family: str,
        delta: float | None = None,
        k: int | float | None = None,
        budget: float | None = None,
        test_spaces: tuple[FiniteMetricSpace, ...] = (),
        clique_exception: bool = False,
    ):
        if family not in FAMILIES:
            raise InvalidArgument(f"unknown family {family!r}; expected one of {FAMILIES}")
        if delta is not None and not delta >= 0:
            raise InvalidArgument(f"delta must be nonnegative, got {delta!r}")
        if family in _NEEDS_K:
            if k is None:
                raise InvalidArgument(f"family {family!r} requires k")
            _check_level(k)
        elif k is not None:
            raise InvalidArgument(f"family {family!r} takes no k")
        if family == "l":
            if budget is not None and not budget > 0:
                raise InvalidArgument(f"budget K must be positive, got {budget!r}")
        elif budget is not None:
            raise InvalidArgument(f"family {family!r} takes no budget")
        if family == "generated":
            if not test_spaces:
                raise InvalidArgument("generated family requires at least one test space")
            test_spaces = tuple(test_spaces)
        elif test_spaces:
            raise InvalidArgument(f"family {family!r} takes no test spaces")
        if clique_exception and family != "el":
            raise InvalidArgument("clique_exception applies to the el family only")
        self._set("family", family)
        self._set("delta", delta)
        self._set("k", k)
        self._set("budget", budget)
        self._set("test_spaces", test_spaces)
        self._set("clique_exception", clique_exception)

    def with_delta(self, delta: float) -> "MethodSpec":
        return type(self)(
            self.family, delta, self.k, self.budget, self.test_spaces, self.clique_exception
        )

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
        """The method of a parsed JSON document, checked against the
        ``method`` object of trial_report.schema.json: a wrong type raises
        InvalidArgument naming the key, and the constructor checks the
        values."""
        if not isinstance(data, dict) or "family" not in data:
            raise InvalidArgument("method JSON needs 'family'")

        def number(key, inf=True):
            v = data[key]
            if inf and v == "inf":
                return math.inf
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise InvalidArgument(f"method {key!r} must be a number" + " or 'inf'" * inf)
            return v

        k = number("k") if "k" in data else None
        if isinstance(k, float) and k != math.inf:
            if not k.is_integer():
                raise InvalidArgument("method 'k' must be an integer or 'inf'")
            k = int(k)
        tests = data.get("test_spaces", [])
        if not isinstance(tests, list):
            raise InvalidArgument("method 'test_spaces' must be a list of spaces")
        clique_exception = data.get("clique_exception", False)
        if not isinstance(clique_exception, bool):
            raise InvalidArgument("method 'clique_exception' must be true or false")
        return cls(
            family=data["family"],
            delta=number("delta", inf=False) if "delta" in data else None,
            k=k,
            budget=float(number("K")) if "K" in data else None,
            test_spaces=tuple(FiniteMetricSpace.from_dict(t) for t in tests),
            clique_exception=clique_exception,
        )


class ProbeResult(_FrozenRecord):
    """Outcome of the two-point scale probe."""

    __slots__ = ("delta_f", "boundary_merged")

    def __init__(self, delta_f: float, boundary_merged: bool):
        self._set("delta_f", delta_f)
        self._set("boundary_merged", boundary_merged)


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
    # finite budget: cheapest total length over <= k steps, then threshold;
    # from each point a round of steps extends only the totals that fell
    # in the round before (the others were extended already)
    steps = n - 1 if k == math.inf else min(k, n - 1)
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
    """Adjacency masks of the relation that defines a method at scale
    delta: the method's cover is the maximal linked sets of it.

    * sl, ml and l: the step relation, linking points joined by at most k
      steps of length <= delta each with total length at most K. sl is
      k = K = inf (the components of the threshold graph), ml is k = 1,
      K = inf (the threshold graph itself).
    * vl and el: the co-blocking relation of the maximal k-vertex- or
      k-edge-connected subgraphs of the threshold graph. Its maximal
      cliques are their flag completion, the least flag cover that they
      refine, so the relation is read off the blocks before completion,
      straight from the block masks of graphs._vertex_blocks and
      graphs._edge_blocks (a block nested in another adds no pair).
    * bk and bkstar: the closure of the threshold graph under the strict
      or relaxed k-anchored edge rule.
    * generated: the probe relation of the test spaces (probe_relation),
      which has no scale and ignores delta.

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
    if family == "generated":
        return probe_relation(x, spec.test_spaces).adj
    if family in ("sl", "ml", "l"):
        k = {"sl": math.inf, "ml": 1}.get(family, spec.k)
        budget = math.inf if spec.budget is None else spec.budget
        return _step_relation(x, delta, k, budget)
    adj = x._adjacency(delta)
    if family == "vl":
        from .graphs import _vertex_blocks

        return _co_blocking_masks(x.n, _vertex_blocks(adj, spec.k))
    if family == "el":
        from .graphs import _edge_blocks

        return _co_blocking_masks(x.n, _edge_blocks(adj, spec.k, spec.clique_exception))
    if start is not None:
        adj = [a | b for a, b in zip(adj, start)]
    return _bitops.closure_bk(adj, spec.k, relaxed=family == "bkstar")


def _method_relation(x: FiniteMetricSpace, spec: MethodSpec) -> list[int]:
    """The relation of one flat evaluation: _linked_relation at the
    method's own delta (which the generated family does not read)."""
    if spec.family != "generated" and spec.delta is None:
        raise InvalidArgument(f"method {spec.label()!r} needs delta for flat evaluation")
    return _linked_relation(x, spec, spec.delta)


def evaluate_method(x: FiniteMetricSpace, spec: MethodSpec) -> FlagCover:
    """Run one clustering method on one space: the maximal linked sets of
    its relation (_method_relation)."""
    cliques = _bitops.maximal_cliques(_method_relation(x, spec))
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
        raise InvalidArgument("cover metrization needs delta > 0")
    from .graphs import Graph, space_from_graph

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
            raise InvalidArgument("clustering_parameter needs the method's delta")
        hi = 2.0 * spec.delta
        if not math.isfinite(hi):
            raise InvalidArgument(
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
