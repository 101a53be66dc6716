"""Randomized and exhaustive consistency checks for the clustering families.

The harness executes the structural claims as tests: consistency of each
method under non-expansive maps (with quotient/shrink/extend trial
generation), the two-sided sandwich around any method with a working scale
probe, exhaustive small-space counterexample searches for the families that
are only consistent under injective maps, and independent exponential
oracles for the clique and flagification kernels.

The three checks decide on relations, not covers. Every method's output
is a flag cover, the maximal cliques of its relation (functors'
_linked_relation), and for flag covers refinement is inclusion of the
co-blocking relations: a set of pairwise co-blocked points lies in one
block. So a map f is consistent when every pair related in X maps to one
point or to a pair related in Y, and the sandwich holds when the maximal
linkage relation lies inside the method's, which lies inside single
linkage's. Covers are built only for a trial that fails, to write its
violation entry and to confirm it with the cover check (refines);
verify_witness replays a witness through covers alone.

All randomness flows through the SplitMix64 generator in .rng with seeds
derived per trial, so any report is reproducible byte for byte from its
seed. Wall-clock time is kept on the report object but excluded from its
canonical dict form.
"""

from __future__ import annotations

import itertools
import math
import time

from . import _bitops
from ._names import CATEGORIES, _Record
from .covers import (
    Cover,
    FlagCover,
    Relation,
    is_consistent_map,
    maximal_linked_sets,
    preimage_cover,
    refines,
)
from .errors import InvalidArgument, TooLarge
from .functors import (
    MethodSpec,
    _method_relation,
    clustering_parameter,
    evaluate_method,
    maximal_linkage,
    single_linkage,
)
from .metric import (
    REL_TOL,
    FiniteMetricSpace,
    MetricMap,
    _nonexpansive_assignments,
    metric_closure,
    space_from_points,
    validate_metric,
)
from .rng import SplitMix64, derive_seed

METRIC_MODES = (
    "euclidean-points",
    "closure-of-random-matrix",
    "ultrametric-tree",
)


class TrialReport(_Record):
    """Outcome of one verification run.

    ``violations`` entries are self-contained: they embed the serialized
    spaces, the assignment and both covers, so any entry can be replayed
    standalone with :func:`verify_witness`.
    """

    __slots__ = (
        "check", "method", "category", "trials", "violations", "seed", "elapsed", "extra"
    )

    def __init__(
        self,
        check: str,
        method: dict,
        category: str | None,
        trials: int,
        violations: list[dict],
        seed: int,
        elapsed: float,
        extra: dict | None = None,
    ):
        self.check = check
        self.method = method
        self.category = category
        self.trials = trials
        self.violations = violations
        self.seed = seed
        self.elapsed = elapsed
        self.extra = {} if extra is None else extra

    def to_dict(self, include_elapsed: bool = False) -> dict:
        out = {
            "check": self.check,
            "method": self.method,
            "category": self.category,
            "trials": self.trials,
            "violations": self.violations,
            "seed": self.seed,
        }
        if self.extra:
            out["extra"] = self.extra
        if include_elapsed:
            out["elapsed"] = self.elapsed
        return out


def random_metric(n: int, seed: int, mode: str = "euclidean-points") -> FiniteMetricSpace:
    """A reproducible random space with n points.

    Modes: points in the unit square under the euclidean norm; a uniform
    random symmetric matrix repaired by shortest-path closure; or an
    ultrametric from a random agglomeration tree with increasing merge
    heights.
    """
    if n < 1:
        raise InvalidArgument("need at least one point")
    if mode not in METRIC_MODES:
        raise InvalidArgument(f"unknown mode {mode!r}; expected one of {METRIC_MODES}")
    rng = SplitMix64(seed)
    width = max(2, len(str(n - 1)))
    labels = [f"p{i:0{width}d}" for i in range(n)]
    if mode == "euclidean-points":
        coords = [(rng.uniform(), rng.uniform()) for _ in range(n)]
        return space_from_points(coords, labels=labels)
    d = [[0.0] * n for _ in range(n)]
    if mode == "closure-of-random-matrix":
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = rng.uniform(0.1, 1.0)
        return metric_closure(labels, d)
    # ultrametric-tree
    clusters = [[i] for i in range(n)]
    height = 0.0
    while len(clusters) > 1:
        height += rng.uniform(0.05, 0.6)
        i = rng.randint(len(clusters))
        j = rng.randint(len(clusters) - 1)
        if j >= i:
            j += 1
        a, b = clusters[i], clusters[j]
        for u in a:
            for v in b:
                d[u][v] = d[v][u] = height
        merged = a + b
        clusters = [c for t, c in enumerate(clusters) if t not in (i, j)]
        clusters.append(merged)
    return validate_metric(labels, d)


def random_flag_cover(n: int, seed: int) -> FlagCover:
    """Maximal linked sets of a uniform random relation on n points."""
    rng = SplitMix64(seed)
    width = max(2, len(str(max(n - 1, 1))))
    labels = tuple(f"p{i:0{width}d}" for i in range(n))
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.randint(2):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return maximal_linked_sets(Relation.from_masks(labels, adj))


def _count_assignments(n_src: int, n_tgt: int, injective: bool) -> float:
    if injective:
        if n_tgt < n_src:
            return 0.0
        total = 1.0
        for t in range(n_src):
            total *= n_tgt - t
        return total
    return float(n_tgt) ** n_src


def random_map(
    x: FiniteMetricSpace,
    y: FiniteMetricSpace,
    seed: int,
    require_injective: bool = False,
    rel_tol: float = REL_TOL,
) -> MetricMap | None:
    """A random non-expansive assignment between two given spaces.

    The assignments are enumerated with pairwise pruning and one valid
    assignment is drawn uniformly, so the draw is exact. Returns None only
    when no non-expansive map exists (injective when required). Raises
    TooLarge when there are more than 200,000 raw assignments to enumerate.
    """
    n, m = x.n, y.n
    raw = _count_assignments(n, m, require_injective)
    if raw == 0:
        return None
    if raw > 200_000:
        raise TooLarge(
            f"random_map enumerates at most 200,000 assignments, "
            f"got {raw:,.0f} for {n} points into {m}"
        )
    rng = SplitMix64(seed)
    tol = rel_tol * max(x.diameter(), y.diameter(), 0.0)
    found = list(_nonexpansive_assignments(x, y, tol, require_injective))
    if not found:
        return None
    pick = found[rng.randint(len(found))]
    return MetricMap(x, y, {x.labels[i]: y.labels[pick[i]] for i in range(n)})


def _fresh_labels(taken: set[str], count: int) -> list[str]:
    out = []
    i = 0
    while len(out) < count:
        cand = f"zz{i:02d}"
        while cand in taken:
            cand += "z"
        taken.add(cand)
        out.append(cand)
        i += 1
    return out


def random_morphism(
    x: FiniteMetricSpace, rng: SplitMix64, category: str = "met"
) -> tuple[FiniteMetricSpace, MetricMap]:
    """Sample a target space and a non-expansive map out of x.

    Composes up to three stages: collapse random disjoint pairs onto the
    blockwise-minimum quotient (skipped in the injective category), shrink
    distances (globally or entrywise), and extend by fresh points; one
    shortest-path closure at the end repairs the triangle inequality.
    Every stage only decreases the distances between images, so the
    resulting assignment is non-expansive by construction.
    """
    if category not in CATEGORIES:
        raise InvalidArgument(f"unknown category {category!r}; expected one of {CATEGORIES}")
    n = x.n
    labels = list(x.labels)
    d = x._rows()
    assignment = {lab: lab for lab in labels}
    y_labels = list(labels)
    if category == "met" and n >= 2:
        collapses = rng.randint(3)
        avail = list(range(n))
        groups: list[list[int]] = []
        for _ in range(collapses):
            if len(avail) < 2:
                break
            i = avail.pop(rng.randint(len(avail)))
            j = avail.pop(rng.randint(len(avail)))
            groups.append(sorted((i, j)))
        if groups:
            y_labels, d, assignment = _quotient(labels, d, groups)
    mode = rng.randint(3)
    if mode == 0:
        scale = rng.uniform(0.4, 1.0)
        d = [[v * scale for v in row] for row in d]
    elif mode == 1:
        m = len(y_labels)
        for i in range(m):
            for j in range(i + 1, m):
                if rng.randint(2):
                    s = rng.uniform(0.3, 1.0)
                    d[i][j] *= s
                    d[j][i] = d[i][j]
    extensions = rng.randint(3)
    if extensions:
        taken = set(y_labels) | set(labels)
        extra = _fresh_labels(taken, extensions)
        top = max(max(map(max, d)), 1.0)
        m = len(y_labels)
        d = [row + [0.0] * extensions for row in d]
        d += [[0.0] * (m + extensions) for _ in range(extensions)]
        for t in range(extensions):
            for i in range(m + t):
                v = rng.uniform(0.05, 1.2) * top
                d[m + t][i] = d[i][m + t] = v
        y_labels = y_labels + extra
    y = metric_closure(y_labels, d)
    f = MetricMap(x, y, assignment)
    if not f.is_nonexpansive():
        raise AssertionError("morphism templates must be non-expansive")
    if category == "metinj" and not f.is_injective():
        raise AssertionError("injective morphism templates must be injective")
    return y, f


def _check_run(spec: MethodSpec, trials: int, sizes: tuple[int, int], check: str) -> None:
    """A report carries its method and its trial count: JSON has no
    infinite numbers, and a run makes a whole number of trials, at least
    zero. Each trial draws a space of lo to hi points, 1 <= lo <= hi."""
    if spec.delta is not None and not math.isfinite(spec.delta):
        raise InvalidArgument(f"{check} needs a finite delta, got {spec.delta!r}")
    if isinstance(trials, bool) or not isinstance(trials, int):
        raise InvalidArgument(f"{check} needs an integer number of trials, got {trials!r}")
    if trials < 0:
        raise InvalidArgument(f"{check} needs a nonnegative number of trials, got {trials!r}")
    if not (
        isinstance(sizes, (tuple, list))
        and len(sizes) == 2
        and all(isinstance(n, int) and not isinstance(n, bool) for n in sizes)
        and 1 <= sizes[0] <= sizes[1]
    ):
        raise InvalidArgument(
            f"{check} needs sizes (lo, hi) of integers with 1 <= lo <= hi, got {sizes!r}"
        )


def _pulls_back(rx: list[int], ry: list[int], image: list[int]) -> bool:
    """Whether relation rx lies inside the pullback of ry along the map
    sending point i to point image[i]: every related pair maps to one
    point or to a related pair.

    For the flag covers of rx and ry this is is_consistent_map: the image
    of a block of X is then pairwise co-blocked in Y, so it lies in one
    block of Y.
    """
    fibre = [0] * len(ry)
    for i, a in enumerate(image):
        fibre[a] |= 1 << i
    for i, row in enumerate(rx):
        a = image[i]
        allowed = fibre[a]
        for b in _bitops.bits(ry[a]):
            allowed |= fibre[b]
        if row & ~allowed:
            return False
    return True


def _within(inner: list[int], outer: list[int]) -> bool:
    """Whether relation inner lies inside relation outer, row by row. For
    the flag covers of the two relations this is refines."""
    return not any(a & ~b for a, b in zip(inner, outer))


def _inconsistent_covers(
    x: FiniteMetricSpace, y: FiniteMetricSpace, f, spec: MethodSpec
) -> tuple[FlagCover, FlagCover]:
    """The method's covers of x and y, for a map f (a MetricMap or a label
    assignment) that the relation check found inconsistent. The cover
    check must agree; a disagreement is a bug, so it raises."""
    fx = evaluate_method(x, spec)
    fy = evaluate_method(y, spec)
    if refines(fx, preimage_cover(f, fy)):
        raise AssertionError(
            "the relation check and the cover check disagree on a map; this is a bug"
        )
    return fx, fy


def check_functoriality(
    spec: MethodSpec,
    trials: int,
    category: str = "met",
    seed: int = 0,
    sizes: tuple[int, int] = (3, 8),
) -> TrialReport:
    """Evaluate the method on sampled maps and test consistency each time.

    For every trial (X, f : X -> Y) the check is that the clustering of X
    refines the preimage of the clustering of Y. It is decided on the
    method's relations (every pair related in X maps to one point or to a
    related pair in Y), which is the same for flag covers; the covers are
    built only for a violation. Violation entries carry everything needed
    to replay the trial.
    """
    _check_run(spec, trials, sizes, "functoriality check")
    start = time.perf_counter()
    lo, hi = sizes
    violations: list[dict] = []
    for t in range(trials):
        rng = SplitMix64(derive_seed(seed, 101, t))
        n = lo + rng.randint(hi - lo + 1)
        mode = METRIC_MODES[t % len(METRIC_MODES)]
        x = random_metric(n, derive_seed(seed, 202, t), mode)
        y, f = random_morphism(x, rng, category)
        image = [y.index(f.assignment[p]) for p in x.labels]
        if not _pulls_back(_method_relation(x, spec), _method_relation(y, spec), image):
            fx, fy = _inconsistent_covers(x, y, f, spec)
            violations.append(
                {
                    "trial": t,
                    "x": x.to_dict(),
                    "y": y.to_dict(),
                    "assignment": dict(f.assignment),
                    "fx": fx.to_dict(),
                    "fy": fy.to_dict(),
                }
            )
    return TrialReport(
        check="functoriality",
        method=spec.to_dict(),
        category=category,
        trials=trials,
        violations=violations,
        seed=seed,
        elapsed=time.perf_counter() - start,
    )


def check_sandwich(
    spec: MethodSpec,
    trials: int,
    seed: int = 0,
    sizes: tuple[int, int] = (3, 8),
) -> TrialReport:
    """Probe the method's scale, then check the two-sided bracketing:
    maximal linkage at the probed scale refines the method's output, which
    refines single linkage at the probed scale.

    Decided on relations: row by row, the maximal linkage relation lies
    inside the method's, which lies inside the single linkage relation.
    For flag covers that is the two refinements; the covers are built only
    for a violation."""
    _check_run(spec, trials, sizes, "sandwich check")
    start = time.perf_counter()
    probe = clustering_parameter(spec)
    ml_spec = MethodSpec("ml", probe.delta_f)
    sl_spec = MethodSpec("sl", probe.delta_f)
    lo, hi = sizes
    violations: list[dict] = []
    for t in range(trials):
        rng = SplitMix64(derive_seed(seed, 303, t))
        n = lo + rng.randint(hi - lo + 1)
        mode = METRIC_MODES[t % len(METRIC_MODES)]
        x = random_metric(n, derive_seed(seed, 404, t), mode)
        rf = _method_relation(x, spec)
        if not (
            _within(_method_relation(x, ml_spec), rf)
            and _within(rf, _method_relation(x, sl_spec))
        ):
            fx = evaluate_method(x, spec)
            fine = maximal_linkage(x, probe.delta_f)
            coarse = single_linkage(x, probe.delta_f)
            if refines(fine, fx) and refines(fx, coarse):
                raise AssertionError(
                    "the relation check and the cover check disagree on the "
                    "sandwich; this is a bug"
                )
            violations.append(
                {
                    "trial": t,
                    "x": x.to_dict(),
                    "fx": fx.to_dict(),
                    "ml_at_delta_f": fine.to_dict(),
                    "sl_at_delta_f": coarse.to_dict(),
                }
            )
    return TrialReport(
        check="sandwich",
        method=spec.to_dict(),
        category=None,
        trials=trials,
        violations=violations,
        seed=seed,
        elapsed=time.perf_counter() - start,
        extra={"delta_f": probe.delta_f, "boundary_merged": probe.boundary_merged},
    )


def _quotient(
    labels: list[str], d: list[list[float]], groups: list[list[int]]
) -> tuple[list[str], list[list[float]], dict[str, str]]:
    """Collapse each group of point indices onto its first member, with
    blockwise-minimum distances between the classes.

    Returns the kept labels in index order, the quotient matrix and the
    projection as a label assignment. The projection is non-expansive.
    Blockwise minima can break the triangle inequality, but not when all
    distances between distinct points lie in {delta, 2 delta}.
    """
    n = len(labels)
    rep = list(range(n))
    for grp in groups:
        for v in grp[1:]:
            rep[v] = grp[0]
    keys = sorted(set(rep))
    members = [[v for v in range(n) if rep[v] == k] for k in keys]
    m = len(keys)
    qd = [[0.0] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            qd[a][b] = qd[b][a] = min(d[u][v] for u in members[a] for v in members[b])
    return [labels[k] for k in keys], qd, {labels[v]: labels[rep[v]] for v in range(n)}


def _graph_orbit_reps(n: int) -> list[int]:
    """One edge-mask per isomorphism class of graphs on n labeled vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    e = len(pairs)
    pair_index = {p: i for i, p in enumerate(pairs)}
    tables = []
    for perm in itertools.permutations(range(n)):
        tables.append(
            [pair_index[tuple(sorted((perm[i], perm[j])))] for (i, j) in pairs]
        )
    seen = bytearray(1 << e)
    reps = []
    for mask in range(1 << e):
        if seen[mask]:
            continue
        reps.append(mask)
        for table in tables:
            img = 0
            rem = mask
            while rem:
                low = rem & -rem
                img |= 1 << table[low.bit_length() - 1]
                rem ^= low
            seen[img] = 1
    return reps


def _collapse_patterns(n: int) -> list[list[list[int]]]:
    """Group patterns in escalation order: single pairs, then two disjoint
    pairs, then triples (a triple is two overlapping pair collapses)."""
    singles = [[list(p)] for p in itertools.combinations(range(n), 2)]
    doubles = []
    pairs = list(itertools.combinations(range(n), 2))
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            if not set(pairs[a]) & set(pairs[b]):
                doubles.append([list(pairs[a]), list(pairs[b])])
    triples = [[list(t)] for t in itertools.combinations(range(n), 3)]
    return singles + doubles + triples


def find_counterexample(
    spec: MethodSpec, max_points: int = 6, budget: int = 10**6
) -> dict | None:
    """Search small spaces for a consistency violation of the method.

    Candidates are spaces with distances in {delta, 2delta} (equivalently,
    graphs), taken one per isomorphism class, against quotient maps that
    collapse one pair, then two pairs. The first violation is re-verified
    standalone before being returned as a self-contained witness dict;
    None means the search space (or budget) was exhausted: the always
    consistent families land here.
    """
    return _search_counterexample(spec, max_points, budget)[0]


def _search_counterexample(
    spec: MethodSpec, max_points: int, budget: int
) -> tuple[dict | None, int]:
    """find_counterexample's search, also returning how many candidates it
    tried: up to the witness when one is found, else all it enumerated
    (at most the budget)."""
    if spec.delta is None:
        raise InvalidArgument("counterexample search needs a method with delta")
    if not 0 < spec.delta < math.inf:
        raise InvalidArgument(
            f"counterexample search needs a finite delta > 0, got {spec.delta!r}"
        )
    if max_points > 7:
        raise InvalidArgument("orbit enumeration supports at most 7 points")
    from .graphs import Graph, space_from_graph

    delta = spec.delta
    tried = 0
    for n in range(3, max_points + 1):
        labels = [f"x{i}" for i in range(n)]
        pairs = list(itertools.combinations(range(n), 2))
        reps = _graph_orbit_reps(n)
        patterns = _collapse_patterns(n)
        x_cache: dict[int, tuple[FiniteMetricSpace, list[int]]] = {}
        for pattern in patterns:
            for mask in reps:
                if tried >= budget:
                    return None, tried
                tried += 1
                if mask not in x_cache:
                    adj = [0] * n
                    for e, (i, j) in enumerate(pairs):
                        if mask >> e & 1:
                            adj[i] |= 1 << j
                            adj[j] |= 1 << i
                    x = space_from_graph(Graph.from_masks(labels, adj), delta)
                    x_cache[mask] = x, _method_relation(x, spec)
                x, rx = x_cache[mask]
                y_labels, qd, assignment = _quotient(labels, x._rows(), pattern)
                y = FiniteMetricSpace(y_labels, qd)
                image = [y.index(assignment[p]) for p in x.labels]
                if _pulls_back(rx, _method_relation(y, spec), image):
                    continue
                fx, fy = _inconsistent_covers(x, y, assignment, spec)
                witness = {
                    "method": spec.to_dict(),
                    "x": x.to_dict(),
                    "y": y.to_dict(),
                    "assignment": assignment,
                    "fx": fx.to_dict(),
                    "fy": fy.to_dict(),
                    "points": n,
                    "candidates_tried": tried,
                }
                if verify_witness(witness):
                    return witness, tried
                raise AssertionError(
                    "search flagged a candidate that does not replay; "
                    "this is a bug, not a witness"
                )
    return None, tried


def verify_witness(witness: dict) -> bool:
    """Replay a violation witness from its serialized form alone."""
    for key in ("method", "x", "y", "assignment", "fx", "fy"):
        if not isinstance(witness, dict) or key not in witness:
            raise InvalidArgument(f"witness JSON needs {key!r}")
    spec = MethodSpec.from_dict(witness["method"])
    x = FiniteMetricSpace.from_dict(witness["x"])
    y = FiniteMetricSpace.from_dict(witness["y"])
    f = MetricMap(x, y, witness["assignment"])
    if not f.is_nonexpansive():
        return False
    fx = evaluate_method(x, spec)
    fy = evaluate_method(y, spec)
    if fx.to_dict() != witness["fx"] or fy.to_dict() != witness["fy"]:
        return False
    return not is_consistent_map(f, fx, fy)


def brute_force_maximal_linked(relation: Relation) -> FlagCover:
    """Maximal linked sets by exhaustive subset enumeration (up to 16 points).

    Independent of the clique kernel: a subset qualifies when all its pairs
    are related and no one-point extension still qualifies.
    """
    n = len(relation.base)
    if n > 16:
        raise TooLarge(f"brute force capped at 16 points, got {n}")
    adj = relation.adj
    linked = set()
    for mask in range(1, 1 << n):
        ok = True
        rem = mask
        while rem:
            low = rem & -rem
            v = low.bit_length() - 1
            rem ^= low
            if mask & ~(adj[v] | (1 << v)):
                ok = False
                break
        if ok:
            linked.add(mask)
    maximal = []
    for mask in linked:
        extend = False
        for v in range(n):
            if not mask >> v & 1 and (mask | (1 << v)) in linked:
                extend = True
                break
        if not extend:
            maximal.append(mask)
    return FlagCover.from_masks(relation.base, sorted(maximal))


def iterative_flagify_oracle(cover: Cover) -> FlagCover:
    """Flagification by the defining fixed point (up to 10 points).

    Repeatedly adjoin every set that is pairwise co-blocked but not inside
    any block, drop non-maximal blocks, and stop when nothing is mandated.
    Exponential by design; used to cross-check the one-pass clique version.
    """
    n = len(cover.base)
    if n > 10:
        raise TooLarge(f"iterative flagification capped at 10 points, got {n}")
    blocks = set(cover.masks())
    while True:
        keep: list[int] = []
        for m in sorted(blocks, key=lambda b: -b.bit_count()):
            if not any(m & k == m for k in keep):
                keep.append(m)
        blocks = set(keep)
        cb = [0] * n
        for m in blocks:
            rem = m
            while rem:
                low = rem & -rem
                cb[low.bit_length() - 1] |= m
                rem ^= low
        for v in range(n):
            cb[v] &= ~(1 << v)
        mandated = []
        for mask in range(1, 1 << n):
            if any(mask & b == mask for b in blocks):
                continue
            ok = True
            rem = mask
            while rem and ok:
                low = rem & -rem
                v = low.bit_length() - 1
                rem ^= low
                if mask & ~(cb[v] | low):
                    ok = False
            if ok:
                mandated.append(mask)
        if not mandated:
            break
        blocks.update(mandated)
    return FlagCover.from_masks(cover.base, sorted(blocks))
