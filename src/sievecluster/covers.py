"""Covers of a finite label set, flag covers, and binary relations.

A cover is a family of non-empty blocks whose union is the base set;
blocks may overlap and may be nested. A flag cover is additionally
non-nested and satisfies the flag condition: any set of labels that is
pairwise co-blocked (every two of them share some block) must itself lie
inside one block. Flag covers are exactly the families of maximal cliques
of their co-blocking graph, which is how the checks here decide things.

Canonical form: the base and each block are sorted tuples and the block
list is sorted, so structural equality is plain equality.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from . import _bitops
from ._names import _string_lists
from .errors import BaseMismatch, InvalidArgument, NestedCover
from .metric import MetricMap, _canonical_labels


class Cover:
    """A family of blocks covering a base set. Overlap and nesting allowed."""

    __slots__ = ("base", "blocks", "_index", "_masks")

    def __init__(self, base: Iterable[str], blocks: Iterable[Iterable[str]]):
        self.base = tuple(sorted(_canonical_labels(base)))
        index = {x: i for i, x in enumerate(self.base)}
        seen = set()
        canon = []
        covered = set()
        for blk in blocks:
            b = tuple(sorted(str(x) for x in blk))
            if not b:
                raise InvalidArgument("cover blocks must be non-empty")
            for x in b:
                if x not in index:
                    raise InvalidArgument(f"block label {x!r} is not in the base")
            if len(set(b)) != len(b):
                raise InvalidArgument(f"block {b} repeats a label")
            if b in seen:
                continue
            seen.add(b)
            canon.append(b)
            covered.update(b)
        if covered != set(self.base):
            missing = sorted(set(self.base) - covered)
            raise InvalidArgument(f"blocks do not cover the base; missing {missing}")
        self.blocks = tuple(sorted(canon))
        self._index = index
        self._masks: list[int] | None = None

    @classmethod
    def from_masks(cls, base: tuple[str, ...], masks: Iterable[int]) -> "Cover":
        blocks = [
            tuple(base[i] for i in _bitops.bits(m)) for m in masks
        ]
        return cls(base, blocks)

    def masks(self) -> list[int]:
        """Block bitmasks aligned to base order (cached)."""
        if self._masks is None:
            self._masks = [
                _bitops.mask_of(self._index[x] for x in blk) for blk in self.blocks
            ]
        return self._masks

    def is_partition(self) -> bool:
        return sum(len(b) for b in self.blocks) == len(self.base)

    def to_dict(self) -> dict:
        """JSON form: {"base": [...], "clusters": [[...], ...]}."""
        return {
            "base": list(self.base),
            "clusters": [list(b) for b in self.blocks],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Cover":
        if not isinstance(data, dict) or "base" not in data or "clusters" not in data:
            raise InvalidArgument("cover JSON needs 'base' and 'clusters'")
        return cls(_string_lists(data, "base", 1), _string_lists(data, "clusters", 2))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cover):
            return NotImplemented
        return self.base == other.base and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.base, self.blocks))

    def __len__(self) -> int:
        return len(self.blocks)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.blocks)} blocks on {len(self.base)} points)"


def _nested_pair(masks: list[int]) -> tuple[int, int] | None:
    order = sorted(range(len(masks)), key=lambda i: masks[i].bit_count())
    for ai in range(len(order)):
        a = masks[order[ai]]
        for bi in range(ai + 1, len(order)):
            b = masks[order[bi]]
            if a & b == a and a != b:
                return order[ai], order[bi]
    return None


def _co_blocking_masks(base_size: int, masks: list[int]) -> list[int]:
    cb = [0] * base_size
    for m in masks:
        for v in _bitops.bits(m):
            cb[v] |= m
    for v in range(base_size):
        cb[v] &= ~(1 << v)
    return cb


class FlagCover(Cover):
    """A non-nested cover satisfying the flag condition (checked on build)."""

    __slots__ = ()

    def __init__(self, base: Iterable[str], blocks: Iterable[Iterable[str]]):
        super().__init__(base, blocks)
        if not is_flag(self):
            raise InvalidArgument(
                "cover violates the flag condition: its blocks are not the "
                "maximal cliques of the co-blocking graph"
            )

    @classmethod
    def _from_cliques(cls, base: tuple[str, ...], cliques: list[int]) -> "FlagCover":
        """The flag cover whose blocks are the given maximal cliques.

        The maximal cliques of any graph form a flag cover, so nothing is
        re-checked: blocks are read off the masks in base order and sorted.
        A base that is not already sorted and duplicate-free takes the
        validating constructor instead.
        """
        base = tuple(base)
        if any(a >= b for a, b in zip(base, base[1:])):
            return cls.from_masks(base, cliques)
        blocks = [tuple(base[i] for i in _bitops.bits(m)) for m in cliques]
        order = sorted(range(len(blocks)), key=blocks.__getitem__)
        return cls._from_sorted(
            base,
            {x: i for i, x in enumerate(base)},
            tuple(blocks[i] for i in order),
            [cliques[i] for i in order],
        )

    @classmethod
    def _from_sorted(
        cls, base: tuple[str, ...], index: dict[str, int], blocks: tuple, masks: list[int]
    ) -> "FlagCover":
        """A flag cover from canonical parts, taken as given: a sorted,
        duplicate-free base, its label index (which may be shared between
        covers, since nothing mutates it), sorted distinct blocks that are
        the maximal cliques of some graph, and their masks in block order.
        """
        cover = cls.__new__(cls)
        cover.base = base
        cover.blocks = blocks
        cover._index = index
        cover._masks = masks
        return cover


class Relation:
    """A symmetric, irreflexive relation on a base set."""

    __slots__ = ("base", "adj", "_index")

    def __init__(self, base: Iterable[str], pairs: Iterable[tuple[str, str]]):
        self.base = tuple(sorted(_canonical_labels(base)))
        self._index = {x: i for i, x in enumerate(self.base)}
        adj = [0] * len(self.base)
        for a, b in pairs:
            if a not in self._index or b not in self._index:
                raise InvalidArgument(f"relation pair ({a!r}, {b!r}) leaves the base")
            if a == b:
                continue
            i, j = self._index[a], self._index[b]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self.adj = adj

    @classmethod
    def from_masks(cls, base: tuple[str, ...], adj: list[int]) -> "Relation":
        rel = cls.__new__(cls)
        rel.base = tuple(base)
        rel._index = {x: i for i, x in enumerate(rel.base)}
        rel.adj = [m & ~(1 << i) for i, m in enumerate(adj)]
        return rel

    def pairs(self) -> tuple[tuple[str, str], ...]:
        out = []
        for i, m in enumerate(self.adj):
            for j in _bitops.bits(m):
                if j > i:
                    out.append((self.base[i], self.base[j]))
        return tuple(out)

    def related(self, a: str, b: str) -> bool:
        if a == b:
            return True
        return bool(self.adj[self._index[a]] >> self._index[b] & 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.base == other.base and self.adj == other.adj

    def __repr__(self) -> str:
        edges = sum(m.bit_count() for m in self.adj) // 2
        return f"Relation({len(self.base)} points, {edges} pairs)"


def co_blocking(cover: Cover) -> Relation:
    """The relation holding for two labels iff they share a block."""
    return Relation.from_masks(cover.base, _co_blocking_masks(len(cover.base), cover.masks()))


def reduce_to_maximal(cover: Cover) -> Cover:
    """Drop every block contained in another block."""
    masks = cover.masks()
    order = sorted(range(len(masks)), key=lambda i: -masks[i].bit_count())
    kept: list[int] = []
    for i in order:
        m = masks[i]
        if any(m & k == m for k in kept):
            continue
        kept.append(m)
    return Cover.from_masks(cover.base, kept)


def is_flag(cover: Cover) -> bool:
    """Whether a non-nested cover satisfies the flag condition.

    Raises NestedCover when the input is nested (the notion is defined for
    non-nested covers only). Decided by comparing the blocks against its
    flag completion, the maximal cliques of the co-blocking graph.
    """
    masks = cover.masks()
    if not cover.is_partition():
        pair = _nested_pair(masks)
        if pair is not None:
            a, b = pair
            raise NestedCover(
                f"block {cover.blocks[a]} is contained in {cover.blocks[b]}"
            )
    return flagify(cover).blocks == cover.blocks


def flagify(cover: Cover) -> FlagCover:
    """The least flag cover refined by the input.

    Computed in one pass as the maximal cliques of the input's co-blocking
    graph. Nested input is fine; nesting never changes the co-blocking
    relation beyond what the containing block already forces.
    """
    return maximal_linked_sets(co_blocking(cover))


def refines(fine: Cover, coarse: Cover) -> bool:
    """Whether every block of ``fine`` is contained in a block of ``coarse``.
    Only the blocks that ``coarse`` lacks are scanned, and one base tuple
    that both share, as the covers of a sieve do, is not compared."""
    if fine.base is not coarse.base and fine.base != coarse.base:
        raise BaseMismatch(
            f"covers live on different bases ({len(fine.base)} vs "
            f"{len(coarse.base)} labels)"
        )
    blocks = coarse.masks()
    kept = set(blocks)
    return not any(m not in kept and not any(m & c == m for c in blocks) for m in fine.masks())


def _assignment_of(f) -> tuple[dict[str, str], tuple[str, ...] | None]:
    """Accept a MetricMap or a plain label mapping; return (dict, target_base)."""
    if isinstance(f, MetricMap):
        return dict(f.assignment), f.target.labels
    if isinstance(f, Mapping):
        return dict(f), None
    raise TypeError("expected a MetricMap or a label mapping")


def preimage_cover(f, cover: Cover) -> Cover:
    """Pull a cover on the target back along a map.

    Blocks are the non-empty preimages of the target blocks, kept as-is
    (duplicates collapse, nested and non-maximal blocks are retained).
    """
    assignment, target_base = _assignment_of(f)
    if target_base is not None and tuple(target_base) != cover.base:
        raise BaseMismatch("cover base does not match the map's target labels")
    if not set(assignment.values()) <= set(cover.base):
        raise BaseMismatch("map image leaves the cover's base")
    domain = sorted(assignment)
    blocks = []
    for blk in cover.blocks:
        members = frozenset(blk)
        pre = [x for x in domain if assignment[x] in members]
        if pre:
            blocks.append(pre)
    return Cover(domain, blocks)


def is_consistent_map(f, cover_x: Cover, cover_y: Cover) -> bool:
    """Whether cover_x refines the preimage of cover_y along f."""
    assignment, target_base = _assignment_of(f)
    if tuple(sorted(assignment)) != cover_x.base:
        raise BaseMismatch("source cover base does not match the map's domain")
    return refines(cover_x, preimage_cover(f, cover_y))


def maximal_linked_sets(relation: Relation) -> FlagCover:
    """Maximal sets whose members are pairwise related (singletons count).

    These are the maximal cliques of the relation graph, which always form
    a flag cover, so the result is built without re-checking it.
    """
    return FlagCover._from_cliques(relation.base, _bitops.maximal_cliques(relation.adj))
