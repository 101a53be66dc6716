"""Scale profiles: right-continuous step functions from scales to covers.

A sieve assigns to every scale t >= 0 a flag cover of a fixed base set,
constant on half-open intervals [b_i, b_{i+1}) between breakpoints, such
that (1) each cover is a refinement of every cover at a larger scale,
(2) the assignment is right-continuous (structural here, by the half-open
representation), and (3) the last cover is the one-block cover of the
whole base. An object satisfying (1) and (2) but not (3) is a persistent
cover; construction accepts it and the axiom checker reports which
conditions hold.

For the threshold families the cover can only change when the edge set of
the threshold graph changes, so the breakpoints of a built sieve are a
subset of {0} plus the pairwise distances of the space. The sl sieve is
the dendrogram of a minimum spanning tree, read off the tree's merges in
ascending order. Every other family's cover is a flag cover, the maximal
cliques of its co-blocking relation, and that relation only gains pairs as
the scale grows; build_sieve finds where it changes (for every family but
ml by an ascending bisection that holds O(log S) relations for S candidate
scales) and keeps its maximal cliques up to date as it does.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import itemgetter

from ._bitops import bits, cliques_containing
from ._names import _FrozenRecord, _string_lists
from .covers import Cover, FlagCover, is_consistent_map, refines
from .errors import InvalidArgument, MonotonicityViolation
from .functors import MethodSpec, _linked_relation
from .metric import FiniteMetricSpace


class Sieve:
    """Breakpoints plus the covers they start; covers[i] holds on
    [breakpoints[i], breakpoints[i+1]) and the last one onward."""

    __slots__ = ("base", "breakpoints", "covers")

    def __init__(self, base, breakpoints, covers):
        self.base = tuple(base)
        bps = tuple(float(b) for b in breakpoints)
        cvs = tuple(covers)
        if not bps:
            raise InvalidArgument("a sieve needs at least one breakpoint")
        if bps[0] != 0.0:
            raise InvalidArgument("the first breakpoint must be 0")
        for a, b in zip(bps, bps[1:]):
            if not a < b:
                raise InvalidArgument("breakpoints must be strictly increasing")
        if len(bps) != len(cvs):
            raise InvalidArgument("breakpoints and covers must align")
        for c in cvs:
            if not isinstance(c, Cover):
                raise TypeError("sieve covers must be Cover instances")
            if c.base != self.base:
                raise InvalidArgument("every cover must live on the sieve's base")
        for i, (a, b) in enumerate(zip(cvs, cvs[1:])):
            if a == b:
                raise InvalidArgument(
                    f"covers at breakpoints {i} and {i + 1} are equal; "
                    "breakpoints must be genuine"
                )
        self.breakpoints = bps
        self.covers = cvs

    @classmethod
    def _from_lifetimes(cls, base: tuple[str, ...], breakpoints, lifetimes) -> "Sieve":
        """The sieve whose blocks are given as lifetimes (mask, birth,
        death): the block of mask bits over the sorted base is in the
        covers at breakpoint indexes birth <= i < death. The masks are
        distinct maximal cliques of one graph per breakpoint.

        Each block's label tuple is made once and all are sorted once, so
        every cover is read off in canonical order and built as a trusted
        FlagCover. Raises InvalidArgument, as the constructor does, when two
        neighbouring covers are equal: no block is born or dies between.
        """
        bps = tuple(float(b) for b in breakpoints)
        changed = [False] * (len(bps) + 1)
        rows = []
        for mask, birth, death in lifetimes:
            rows.append((tuple(base[i] for i in bits(mask)), mask, birth, death))
            changed[birth] = changed[death] = True
        for i in range(1, len(bps)):
            if not changed[i]:
                raise InvalidArgument(
                    f"covers at breakpoints {i - 1} and {i} are equal; "
                    "breakpoints must be genuine"
                )
        rows.sort()
        blocks: list[list] = [[] for _ in bps]
        masks: list[list[int]] = [[] for _ in bps]
        for blk, mask, birth, death in rows:
            for i in range(birth, death):
                blocks[i].append(blk)
                masks[i].append(mask)
        index = {x: i for i, x in enumerate(base)}
        sieve = cls.__new__(cls)
        sieve.base = base
        sieve.breakpoints = bps
        sieve.covers = tuple(
            FlagCover._from_sorted(base, index, tuple(b), m) for b, m in zip(blocks, masks)
        )
        return sieve

    def evaluate(self, t: float) -> Cover:
        """The cover in effect at scale t (inclusive on the left)."""
        if not t >= 0:
            raise InvalidArgument("scales are nonnegative")
        return self.covers[bisect_right(self.breakpoints, t) - 1]

    def terminal_trivial(self) -> bool:
        return self.covers[-1].blocks == (self.base,)

    def to_dict(self) -> dict:
        return {
            "base": list(self.base),
            "breakpoints": [float(b) for b in self.breakpoints],
            "covers": [[list(blk) for blk in c.blocks] for c in self.covers],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Sieve":
        for key in ("base", "breakpoints", "covers"):
            if not isinstance(data, dict) or key not in data:
                raise InvalidArgument(f"sieve JSON needs {key!r}")
        base = _string_lists(data, "base", 1)
        covers = [FlagCover(base, blocks) for blocks in _string_lists(data, "covers", 3)]
        bps = data["breakpoints"]
        if not isinstance(bps, list) or not all(
            isinstance(b, (int, float)) and not isinstance(b, bool) for b in bps
        ):
            raise InvalidArgument("'breakpoints' must be a list of numbers")
        return cls(base, bps, covers)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sieve):
            return NotImplemented
        return (
            self.base == other.base
            and self.breakpoints == other.breakpoints
            and self.covers == other.covers
        )

    def __repr__(self) -> str:
        return (
            f"Sieve({len(self.base)} points, {len(self.breakpoints)} breakpoints, "
            f"terminal {'trivial' if self.terminal_trivial() else 'non-trivial'})"
        )


def _candidate_scales(x: FiniteMetricSpace) -> list[float]:
    """0 plus the distinct pairwise distances, ascending."""
    scales = x.pairwise_distances()
    if not scales or scales[0] != 0.0:
        scales = [0.0] + scales
    return scales


def build_sieve(x: FiniteMetricSpace, spec: MethodSpec) -> Sieve:
    """Sweep a method over the scales where its cover changes.

    Candidate scales are 0 plus the distinct pairwise distances, ascending:
    the threshold graph, and so the cover, can only change at one of them.

    sl is the dendrogram of a minimum spanning tree (Gower & Ross 1969):
    its blocks are the components of the tree's edges of weight at most
    the scale, so its breakpoints are 0 and the distinct edge weights, and
    it is built from the tree alone (_single_linkage_sieve), with no
    relation and no clique search.

    A space holding a NaN distance raises InvalidArgument for every family,
    naming the first such pair, since a NaN has no place among the scales.

    Every other threshold family outputs flag covers: the maximal cliques of
    their co-blocking relation, which only gains pairs as the scale grows
    (_linked_relation). _clique_sweep keeps those cliques up to date as the
    pairs arrive, so no scale runs a full clique search. ml reads its pairs
    off the sorted distances (_threshold_batches). The other relations are
    bisected (_bisected_batches), evaluated only where the breakpoint search
    needs them, on threshold masks read off the space's sorted rows
    (FiniteMetricSpace._sort_rows); each closure resumes from the one at
    the nearest smaller evaluated scale. Consecutive distinct relations are
    checked for inclusion, which is refinement of the covers: a
    MonotonicityViolation flags a bug in a family, since none can produce
    one.
    """
    if spec.family == "generated":
        raise InvalidArgument(
            "generated methods have no scale parameter to sweep; "
            "build a sieve from a threshold family"
        )
    n, flat = x.n, x._flat
    if any(map(math.isnan, flat)):
        at = next(i for i, d in enumerate(flat) if math.isnan(d))
        a, b = x.labels[at // n], x.labels[at % n]
        raise InvalidArgument(
            f"the distance from {a!r} to {b!r} is NaN; a sieve needs ordered scales"
        )
    if spec.family == "ml":
        return _clique_sweep(x.labels, _threshold_batches(x))
    if spec.family == "sl":
        return _single_linkage_sieve(x)
    x._sort_rows()
    return _clique_sweep(
        x.labels,
        _bisected_batches(
            _candidate_scales(x), lambda t, below: _linked_relation(x, spec, t, below)
        ),
    )


def _single_linkage_sieve(x: FiniteMetricSpace) -> Sieve:
    """The sl sieve of x from a minimum spanning tree.

    Prim's algorithm grows the tree from point 0 over the dense buffer in
    O(n^2) time. Its edges, sorted by weight, merge blocks by union-find,
    one breakpoint per distinct weight; edges of weight 0 merge at
    breakpoint 0. Each merge ends the two merged blocks and starts their
    union, so a block born and merged again within one weight gets no
    lifetime, as in _clique_sweep. x must hold no NaN (build_sieve checks).
    """
    n, flat = x.n, x._flat
    best = list(flat[:n])  # distance from the tree to each point outside it
    link = [0] * n  # the tree point at that distance
    outside = list(range(1, n))
    edges = []
    while outside:
        v = min(outside, key=best.__getitem__)
        outside.remove(v)
        edges.append((best[v], link[v], v))
        row = flat[v * n : (v + 1) * n]
        for u in outside:
            if row[u] < best[u]:
                best[u] = row[u]
                link[u] = v
    edges.sort(key=itemgetter(0))
    root = list(range(n))
    mask = [1 << v for v in range(n)]  # the block of each root
    birth = [0] * n  # the breakpoint index at which it was born

    def find(r: int) -> int:
        while root[r] != r:
            root[r] = r = root[root[r]]  # path halving
        return r

    lifetimes: list[tuple[int, int, int]] = []
    bps = [0.0]
    for w, u, v in edges:
        if w > bps[-1]:
            bps.append(w)
        j = len(bps) - 1
        u, v = find(u), find(v)
        lifetimes += [(mask[r], birth[r], j) for r in (u, v) if birth[r] < j]
        root[v] = u
        mask[u] |= mask[v]
        birth[u] = j
    lifetimes += [(mask[r], birth[r], len(bps)) for r in range(n) if root[r] == r]
    return Sieve._from_lifetimes(x.labels, bps, lifetimes)


def _bisected_batches(scales: list[float], at):
    """(scale, pairs (u, v) with u < v gained there) of a monotone relation
    at ascending scales, one batch at the first scale and one wherever the
    relation changes. ``at(scale, below)`` gives the relation as adjacency
    masks; ``below`` is the relation at a smaller scale, or None.

    A left-first bisection evaluates both ends of an index interval, drops
    the interval when the two relations are equal, and otherwise splits it
    at the midpoint until it has width one: about B log(S / B) evaluations
    for B breakpoints among S scales, exact for a monotone relation.
    ``below`` is the relation at the interval's lower end. Each interval's
    batch is yielded once it is settled, so only the pending right ends
    are held, one per level: O(log S) relations. Raises
    MonotonicityViolation (index of the earlier batch, the later scale)
    when a relation lacks a pair of the one before it, which is when its
    maximal cliques fail to refine the earlier ones.
    """
    last = len(scales) - 1
    rel = at(scales[0], None)
    pending = [(last, at(scales[last], rel))] if last else []  # right ends, nearest last
    prev, i, count = [0] * len(rel), 0, 0
    while True:
        if count == 0 or rel != prev:
            if any(a & ~r for a, r in zip(prev, rel)):
                raise MonotonicityViolation(count - 1, scales[i])
            yield scales[i], [
                (u, v)
                for u, (a, r) in enumerate(zip(prev, rel))
                for v in bits(r & ~a & ~((2 << u) - 1))
            ]
            count += 1
        prev = rel
        if not pending:
            return
        hi, rel = pending[-1]
        while hi - i > 1 and rel != prev:
            hi = (i + hi) // 2
            rel = at(scales[hi], prev)
            pending.append((hi, rel))
        i, rel = pending.pop()


def _threshold_batches(x: FiniteMetricSpace) -> list[tuple[float, list[tuple[int, int]]]]:
    """(scale, pairs (u, v) with u < v at that distance) for scale 0 and
    each distinct pairwise distance, ascending: the pairs the threshold
    graph gains at each candidate scale."""
    n = x.n
    flat = x._flat
    pairs = [(flat[u * n + v], u, v) for u in range(n) for v in range(u + 1, n)]
    pairs.sort(key=itemgetter(0))  # stable: equal distances stay in row-major order
    batches: list[tuple[float, list[tuple[int, int]]]] = [(0.0, [])]
    for d, u, v in pairs:
        if d != batches[-1][0]:
            batches.append((d, []))
        batches[-1][1].append((u, v))
    return batches


def _clique_sweep(base: tuple[str, ...], batches) -> Sieve:
    """The sieve of the maximal cliques of a graph on the base that gains
    the pairs of each (scale, pairs) batch in turn, one breakpoint per
    batch, the first at 0 (possibly with no pairs).

    The cliques are kept up to date one new pair at a time (Stix 2004;
    Das, Svendsen & Tirthapura 2019). The maximal cliques that a new pair
    uv creates are {u, v} joined with each maximal clique of the common
    neighbourhood of u and v. An old maximal clique stops being maximal
    exactly when one of these is it plus u or plus v; every other clique
    lives on. Each clique is recorded once, as a lifetime over breakpoint
    indexes; one born and absorbed within one batch never shows.

    When the common neighbourhood plus u or plus v is already a maximal
    clique, the neighbourhood is complete and the one new clique is it
    plus both ends, found without a search.
    """
    n = len(base)
    adj = [0] * n
    alive = {1 << v: 0 for v in range(n)}  # maximal clique -> birth index
    lifetimes: list[tuple[int, int, int]] = []
    bps: list[float] = []
    for scale, pairs in batches:
        j = len(bps)
        bps.append(scale)
        for u, v in pairs:
            bu, bv = 1 << u, 1 << v
            adj[u] |= bv
            adj[v] |= bu
            common = adj[u] & adj[v]
            if (common | bu) in alive or (common | bv) in alive:
                created = [common | bu | bv]
            else:
                created = cliques_containing(adj, bu | bv, common)
            for clique in created:
                alive[clique] = j
                for old in (clique ^ bu, clique ^ bv):
                    birth = alive.pop(old, j)
                    if birth < j:
                        lifetimes.append((old, birth, j))
    lifetimes += [(mask, birth, len(bps)) for mask, birth in alive.items()]
    return Sieve._from_lifetimes(base, bps, lifetimes)


class SieveAxiomReport(_FrozenRecord):
    """Which of the three profile conditions hold, with violation details."""

    __slots__ = ("refinement_violations", "right_continuity_violations", "terminal_trivial")

    def __init__(
        self,
        refinement_violations: tuple[tuple[int, float], ...],
        right_continuity_violations: tuple[float, ...],
        terminal_trivial: bool,
    ):
        self._set("refinement_violations", refinement_violations)
        self._set("right_continuity_violations", right_continuity_violations)
        self._set("terminal_trivial", terminal_trivial)

    @property
    def is_persistent_cover(self) -> bool:
        return not self.refinement_violations and not self.right_continuity_violations

    @property
    def is_sieve(self) -> bool:
        return self.is_persistent_cover and self.terminal_trivial

    def summary(self) -> str:
        parts = []
        if self.refinement_violations:
            idx = ", ".join(str(i) for i, _ in self.refinement_violations)
            parts.append(f"refinement fails at breakpoint index {idx}")
        else:
            parts.append("refinement chain holds")
        if self.right_continuity_violations:
            parts.append("right continuity fails")
        else:
            parts.append("right-continuous")
        parts.append(
            "terminal cover trivial" if self.terminal_trivial else "terminal cover non-trivial"
        )
        verdict = "sieve" if self.is_sieve else (
            "persistent cover" if self.is_persistent_cover else "not a persistent cover"
        )
        return f"{verdict}: " + "; ".join(parts)


def check_sieve_axioms(s: Sieve) -> SieveAxiomReport:
    """Report conditions (1)-(3) for a possibly hand-built profile.

    Refinement is covers.refines on each neighbouring pair. Right
    continuity is structural in this representation, but the checker
    still exercises evaluate() at and just above each breakpoint and
    compares against the stored cover; above a breakpoint whose next one
    is the adjacent float, no scale lies between to probe.
    """
    refinement = []
    for i, (fine, coarse) in enumerate(zip(s.covers, s.covers[1:])):
        if not refines(fine, coarse):
            refinement.append((i, s.breakpoints[i + 1]))
    continuity = []
    for i, b in enumerate(s.breakpoints):
        if s.evaluate(b) != s.covers[i]:
            continuity.append(b)
            continue
        if i + 1 < len(s.breakpoints):
            nxt = s.breakpoints[i + 1]
            mid = b + (nxt - b) / 2.0
            if not b < mid < nxt:  # adjacent floats: [b, nxt) holds only b
                continue
        else:
            mid = b + max(1.0, abs(b))
        if s.evaluate(mid) != s.covers[i]:
            continuity.append(b)
    return SieveAxiomReport(
        refinement_violations=tuple(refinement),
        right_continuity_violations=tuple(continuity),
        terminal_trivial=s.terminal_trivial(),
    )


def sieve_consistent(f, sieve_x: Sieve, sieve_y: Sieve) -> bool:
    """Whether the map is consistent at every scale.

    Both profiles are constant between the merged breakpoints, so checking
    each merged breakpoint decides consistency for all t >= 0.
    """
    merged = sorted(set(sieve_x.breakpoints) | set(sieve_y.breakpoints))
    for t in merged:
        if not is_consistent_map(f, sieve_x.evaluate(t), sieve_y.evaluate(t)):
            return False
    return True


def block_births(s: Sieve) -> tuple[tuple[tuple[str, ...], float], ...]:
    """Each block ever present, with the smallest scale at which it appears.

    This is the strictly increasing reindexing of the profile by first
    appearance; sorted by birth scale, then by block.
    """
    births: dict[tuple[str, ...], float] = {}
    for b, cover in zip(s.breakpoints, s.covers):
        for blk in cover.blocks:
            if blk not in births:
                births[blk] = b
    return tuple(sorted(births.items(), key=lambda kv: (kv[1], kv[0])))


def is_dendrogram(s: Sieve) -> bool:
    """Whether every cover in the profile is a partition."""
    return all(c.is_partition() for c in s.covers)
