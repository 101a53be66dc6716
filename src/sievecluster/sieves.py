"""Scale profiles: right-continuous step functions from scales to covers.

A sieve assigns to every scale t >= 0 a flag cover of a fixed base set,
constant on half-open intervals [b_i, b_{i+1}) between breakpoints, such
that (1) the cover at a smaller scale refines the cover at a larger one,
(2) the assignment is right-continuous (structural here, by the half-open
representation), and (3) the last cover is the one-block cover of the
whole base. An object satisfying (1) and (2) but not (3) is a persistent
cover; construction accepts it and the axiom checker reports which
conditions hold.

For the threshold families the cover can only change when the edge set of
the threshold graph changes, so the breakpoints of a built sieve are a
subset of {0} plus the pairwise distances of the space; build_sieve finds
them by bisection over those candidates, and for the clique families it
keeps the maximal cliques up to date as the relation gains pairs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter

from ._bitops import bits, cliques_containing
from .covers import Cover, FlagCover, _string_lists, is_consistent_map, refines
from .errors import MonotonicityViolation
from .functors import MethodSpec, _linked_relation, evaluate_method
from .metric import FiniteMetricSpace, _numpy


class Sieve:
    """Breakpoints plus the covers they start; covers[i] holds on
    [breakpoints[i], breakpoints[i+1]) and the last one onward."""

    __slots__ = ("base", "breakpoints", "covers")

    def __init__(self, base, breakpoints, covers):
        self.base = tuple(base)
        bps = tuple(float(b) for b in breakpoints)
        cvs = tuple(covers)
        if not bps:
            raise ValueError("a sieve needs at least one breakpoint")
        if bps[0] != 0.0:
            raise ValueError("the first breakpoint must be 0")
        for a, b in zip(bps, bps[1:]):
            if not a < b:
                raise ValueError("breakpoints must be strictly increasing")
        if len(bps) != len(cvs):
            raise ValueError("breakpoints and covers must align")
        for c in cvs:
            if not isinstance(c, Cover):
                raise TypeError("sieve covers must be Cover instances")
            if c.base != self.base:
                raise ValueError("every cover must live on the sieve's base")
        for i, (a, b) in enumerate(zip(cvs, cvs[1:])):
            if a == b:
                raise ValueError(
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
        FlagCover. Raises ValueError, as the constructor does, when two
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
                raise ValueError(
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
            raise ValueError("scales are nonnegative")
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
            if key not in data:
                raise ValueError(f"sieve JSON needs {key!r}")
        base = _string_lists(data, "base", 1)
        covers = [FlagCover(base, blocks) for blocks in _string_lists(data, "covers", 3)]
        bps = data["breakpoints"]
        if not isinstance(bps, list) or not all(
            isinstance(b, (int, float)) and not isinstance(b, bool) for b in bps
        ):
            raise ValueError("'breakpoints' must be a list of numbers")
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
    Every family reads the threshold graph monotonically, so its cover only
    grows coarser as the scale grows. There are two sweeps.

    The ml, l, bk and bkstar covers are the maximal linked sets of a
    relation that only gains pairs: the threshold graph, the step relation,
    or a closure (both closure rules are monotone, so their least fixed
    point only grows). Their sweep keeps the maximal cliques up to date as
    the relation gains pairs, in ascending order of scale (_clique_sweep),
    so no scale runs a full clique search. The threshold graph gains the
    pairs at each distinct distance, read off the sorted distances. The
    other relations are found by bisection (_bisect), which evaluates the
    relation where its breakpoint search needs to, and each closure resumes
    from the one at the nearest smaller evaluated scale.

    The sl, vl and el covers are bisected directly. A vertex set that
    qualifies for vl or el still qualifies after edges are added; each
    maximal clique of a graph lies inside a maximal clique of any
    supergraph, which carries this through the flag completion. Flag
    covers are non-nested, and refinement between non-nested covers is
    antisymmetric, so for a < b < c a cover at b that refines the one at c
    and is refined by the one at a equals both when those two are equal.

    Consecutive distinct covers are still checked for refinement; for l,
    bk and bkstar, as inclusion of the relations, which is equivalent (the
    ml sweep only ever adds pairs). A MonotonicityViolation flags a bug in
    a family, since none can produce one.
    """
    if spec.family == "generated":
        raise ValueError(
            "generated methods have no scale parameter to sweep; "
            "build a sieve from a threshold family"
        )
    if spec.family == "ml":
        return _clique_sweep(x.labels, _threshold_batches(x))
    scales = _candidate_scales(x)
    if spec.family in ("l", "bk", "bkstar"):
        relations = _bisect(
            len(scales), lambda i, below: _linked_relation(x, spec, scales[i], below)
        )
        return _clique_sweep(
            x.labels, _relation_batches((scales[i], relations[i]) for i in sorted(relations))
        )
    covers = _bisect(len(scales), lambda i, below: evaluate_method(x, spec.with_delta(scales[i])))
    return _profile(x.labels, ((scales[i], covers[i]) for i in sorted(covers)))


def _bisect(count: int, at) -> dict:
    """The values at(i, below) of a monotone step function on the indexes
    0..count-1, at the indexes its breakpoint search visits, keyed by index.

    An iterative bisection evaluates both ends of an index interval, drops
    the interval when the two values are equal, and otherwise splits it
    at the midpoint until it has width one. Dropping is exact for a
    monotone value. Walked in order, the visited indexes give every
    breakpoint, at about B log(count / B) evaluations for B breakpoints.
    ``below`` is the value at the lower end of the interval being split,
    which is always visited first.
    """
    values = {0: at(0, None)}
    stack = [(0, count - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi not in values:
            values[hi] = at(hi, values[lo])
        if hi - lo <= 1 or values[lo] == values[hi]:
            continue
        mid = (lo + hi) // 2
        values[mid] = at(mid, values[lo])
        stack.append((mid, hi))
        stack.append((lo, mid))
    return values


def _threshold_batches(x: FiniteMetricSpace) -> list[tuple[float, list[tuple[int, int]]]]:
    """(scale, pairs (u, v) with u < v at that distance) for scale 0 and
    each distinct pairwise distance, ascending: the pairs the threshold
    graph gains at each candidate scale."""
    n = x.n
    np = _numpy(n)
    if np is None:  # a stable sort keeps equal distances in row-major order
        flat = x._flat
        pairs = [(flat[u * n + v], u, v) for u in range(n) for v in range(u + 1, n)]
        pairs.sort(key=itemgetter(0))
    else:
        rows, cols = np.triu_indices(n, 1)
        dist = x.dist[rows, cols]
        order = np.argsort(dist, kind="stable")
        pairs = zip(dist[order].tolist(), rows[order].tolist(), cols[order].tolist())
    batches: list[tuple[float, list[tuple[int, int]]]] = [(0.0, [])]
    for d, u, v in pairs:
        if d != batches[-1][0]:
            batches.append((d, []))
        batches[-1][1].append((u, v))
    return batches


def _relation_batches(relations):
    """(scale, pairs (u, v) with u < v gained there) from a relation given
    as adjacency masks at ascending scales, one batch at the first scale
    and one wherever the relation changes. Raises MonotonicityViolation
    (index of the earlier batch, the later scale) when a relation lacks a
    pair of the one before it, which is when its maximal cliques fail to
    refine the earlier ones."""
    prev = None
    count = 0
    for scale, rel in relations:
        if prev is None:
            prev = [0] * len(rel)
        elif rel == prev:
            continue
        if any(a & ~r for a, r in zip(prev, rel)):
            raise MonotonicityViolation(count - 1, scale)
        yield scale, [
            (u, v)
            for u, (a, r) in enumerate(zip(prev, rel))
            for v in bits(r & ~a & ~((2 << u) - 1))
        ]
        prev = rel
        count += 1


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
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            for clique in cliques_containing(adj, (1 << u) | (1 << v), adj[u] & adj[v]):
                alive[clique] = j
                for old in (clique ^ (1 << u), clique ^ (1 << v)):
                    birth = alive.pop(old, j)
                    if birth < j:
                        lifetimes.append((old, birth, j))
    lifetimes += [(mask, birth, len(bps)) for mask, birth in alive.items()]
    return Sieve._from_lifetimes(base, bps, lifetimes)


def _profile(base: tuple[str, ...], evaluated) -> Sieve:
    """The sieve of (scale, cover) pairs in ascending scale order, keeping
    the first of each run of equal covers. Raises MonotonicityViolation
    (index of the earlier stored cover, scale of the later) when a cover
    is not refined by the last distinct one before it."""
    bps: list[float] = []
    covers: list[FlagCover] = []
    for scale, cover in evaluated:
        if covers and cover == covers[-1]:
            continue
        if covers and not refines(covers[-1], cover):
            raise MonotonicityViolation(len(covers) - 1, scale)
        bps.append(scale)
        covers.append(cover)
    return Sieve(base, bps, covers)


@dataclass(frozen=True)
class SieveAxiomReport:
    """Which of the three profile conditions hold, with violation details."""

    refinement_violations: tuple[tuple[int, float], ...]
    right_continuity_violations: tuple[float, ...]
    terminal_trivial: bool

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

    Refinement is tested only on the blocks of each cover that the next
    one lacks: a block present in both is contained in a block of the
    next. Right continuity is structural in this representation, but the
    checker still exercises evaluate() at and just above each breakpoint
    and compares against the stored cover.
    """
    refinement = []
    for i, (fine, coarse) in enumerate(zip(s.covers, s.covers[1:])):
        blocks = coarse.masks()
        kept = set(blocks)
        if any(
            m not in kept and not any(m & c == m for c in blocks) for m in fine.masks()
        ):
            refinement.append((i, s.breakpoints[i + 1]))
    continuity = []
    for i, b in enumerate(s.breakpoints):
        if s.evaluate(b) != s.covers[i]:
            continuity.append(b)
            continue
        if i + 1 < len(s.breakpoints):
            mid = b + (s.breakpoints[i + 1] - b) / 2.0
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
