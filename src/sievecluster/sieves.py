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
them by bisection over those candidates.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .covers import Cover, FlagCover, _string_lists, is_consistent_map, refines
from .errors import MonotonicityViolation
from .functors import MethodSpec, evaluate_method
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
    The method is not run at every candidate. An iterative bisection
    evaluates both ends of an index interval (each evaluation cached by
    index), drops the interval when the two covers are equal, and otherwise
    splits it at the midpoint until it has width one. The evaluated scales,
    walked in order, then give every breakpoint, so the sweep costs about
    B log(S / B) evaluations for B breakpoints among S candidates.

    Dropping an interval is exact. The cover only grows coarser as the
    scale grows: the threshold graph only gains edges, and every family
    reads it monotonically. Both closure rules of bk and bkstar are
    monotone in the edge set, so their least fixed point only grows; the
    step relation of l only grows; and a vertex set that qualifies for vl
    or el still qualifies after edges are added. Each maximal clique of a
    graph lies inside a maximal clique of any supergraph, which carries
    this through the maximal linked sets and the flag completion. Flag
    covers are non-nested, and refinement between non-nested covers is
    antisymmetric, so for a < b < c a cover at b that refines the one at c
    and is refined by the one at a equals both when those two are equal.

    Consecutive distinct covers are still checked for refinement: a
    MonotonicityViolation flags a bug in a family, since none can produce
    one.
    """
    if spec.family == "generated":
        raise ValueError(
            "generated methods have no scale parameter to sweep; "
            "build a sieve from a threshold family"
        )
    scales = _candidate_scales(x)
    cache: dict[int, FlagCover] = {}

    def cover_at(i: int) -> FlagCover:
        if i not in cache:
            cache[i] = evaluate_method(x, spec.with_delta(scales[i]))
        return cache[i]

    stack = [(0, len(scales) - 1)]
    while stack:
        lo, hi = stack.pop()
        if cover_at(lo) == cover_at(hi) or hi - lo <= 1:
            continue
        mid = (lo + hi) // 2
        stack.append((mid, hi))
        stack.append((lo, mid))
    return _profile(x.labels, ((scales[i], cache[i]) for i in sorted(cache)))


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

    Right continuity is structural in this representation, but the checker
    still exercises evaluate() at and just above each breakpoint and
    compares against the stored cover.
    """
    refinement = []
    for i in range(len(s.covers) - 1):
        if not refines(s.covers[i], s.covers[i + 1]):
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
