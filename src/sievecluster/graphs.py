"""Simple graphs on labeled vertices and the connectivity decompositions.

The clustering families reduce to graph questions about the threshold
graph at scale delta: connected components, maximal cliques, maximal
k-vertex-connected and k-edge-connected induced subgraphs, and two edge
closure rules. Vertex sets are bitmasks internally (see _bitops); edges
are materialized as label pairs only on demand, so large threshold graphs
stay cheap.

Connectivity conventions, fixed here and relied on throughout:

* vertex connectivity: a vertex set qualifies at level k when its induced
  subgraph either has more than k vertices and no cutset smaller than k,
  or is complete with at most k vertices (so edges qualify at k = 2 and
  singletons always qualify). Level 1 is plain connectivity and the limit
  of large k is the family of maximal cliques.
* edge connectivity: the standard convention has no such clique exception;
  a 2-point block needs 2 edge-disjoint paths, which a single edge cannot
  provide, so at k >= 2 the decomposition is a partition (checked on
  every call). The clique exception can be opted into per call.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterable

from . import _bitops
from .covers import Cover, Relation, reduce_to_maximal
from .errors import InputFormatError
from .metric import FiniteMetricSpace


def _check_level(k) -> None:
    if k == math.inf:
        return
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer or inf, got {k!r}")


class Graph:
    """An undirected simple graph with sorted string vertex labels."""

    __slots__ = ("vertices", "_adj", "_index")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        verts = tuple(sorted(str(v) for v in vertices))
        for a, b in zip(verts, verts[1:]):
            if a == b:
                raise ValueError(f"vertex {a!r} appears more than once")
        index = {v: i for i, v in enumerate(verts)}
        adj = [0] * len(verts)
        for u, v in edges:
            if u not in index or v not in index:
                raise ValueError(f"edge ({u!r}, {v!r}) has an unknown endpoint")
            if u == v:
                raise ValueError(f"self-loop at {u!r} not allowed")
            i, j = index[u], index[v]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self.vertices = verts
        self._adj = adj
        self._index = index

    @classmethod
    def from_masks(cls, vertices: tuple[str, ...], adj: list[int]) -> "Graph":
        g = cls.__new__(cls)
        g.vertices = tuple(vertices)
        g._adj = [m & ~(1 << i) for i, m in enumerate(adj)]
        g._index = {v: i for i, v in enumerate(g.vertices)}
        return g

    def adjacency_masks(self) -> list[int]:
        return list(self._adj)

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        """Unordered pairs, each stored (smaller label, larger label)."""
        out = []
        for i, m in enumerate(self._adj):
            for j in _bitops.bits(m):
                if j > i:
                    out.append((self.vertices[i], self.vertices[j]))
        return frozenset(out)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def has_edge(self, u: str, v: str) -> bool:
        return bool(self._adj[self._index[u]] >> self._index[v] & 1)

    def degree(self, v: str) -> int:
        return self._adj[self._index[v]].bit_count()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {self.edge_count} edges)"


def threshold_graph(space: FiniteMetricSpace, delta: float) -> Graph:
    """Edges between points at distance <= delta (inclusive)."""
    if delta < 0:
        raise ValueError("threshold must be nonnegative")
    return Graph.from_masks(space.labels, space._adjacency(delta))


def space_from_graph(g: Graph, delta: float) -> FiniteMetricSpace:
    """Metrize a graph: adjacent pairs at delta, the rest at 2 * delta.

    Values in {delta, 2*delta} satisfy the triangle inequality outright,
    and the threshold graph of the result at delta is g again.
    """
    if not 0 <= delta < math.inf:
        raise ValueError(f"edge length must be finite and nonnegative, got {delta!r}")
    n = len(g.vertices)
    flat = array("d")
    for i, m in enumerate(g._adj):
        row = [2.0 * delta] * n
        for j in _bitops.bits(m):
            # only a pair that each endpoint's mask holds: the matrix stays
            # exactly symmetric even if the masks are not
            if g._adj[j] >> i & 1:
                row[j] = delta
        row[i] = 0.0
        flat.extend(row)
    return FiniteMetricSpace._of(g.vertices, flat)


def connected_components(g: Graph) -> Cover:
    """The partition of the vertices into connected components."""
    comps = _bitops.components(g._adj, _bitops.full_mask(len(g.vertices)))
    return Cover.from_masks(g.vertices, comps)


def max_vertex_connected_subgraphs(g: Graph, k) -> Cover:
    """Maximal vertex sets qualifying at vertex-connectivity level k.

    Blocks may overlap (in fewer than k vertices). Level 1 is the component
    partition, level 2 comes from biconnected components, and higher levels
    recurse: a cutset smaller than k splits the candidate, and every
    qualifying subset survives into (component + cutset) of the split.
    """
    _check_level(k)
    adj = g._adj
    n = len(g.vertices)
    everything = _bitops.full_mask(n)
    if k == 1:
        return connected_components(g)
    if k == math.inf:
        return Cover.from_masks(g.vertices, _bitops.maximal_cliques(adj, everything))
    if k == 2:
        blocks = _bitops.biconnected_vertex_sets(adj, everything)
        in_blocks = 0
        for b in blocks:
            in_blocks |= b
        for v in range(n):
            if not in_blocks >> v & 1:
                blocks.append(1 << v)
        return reduce_to_maximal(Cover.from_masks(g.vertices, blocks))
    found: set[int] = set()
    seen: set[int] = set()
    stack = _bitops.components(adj, everything)
    while stack:
        s = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        if s.bit_count() <= k:
            found.update(_bitops.maximal_cliques(adj, s))
            continue
        cut = _bitops.vertex_cut_below(adj, s, k)
        if cut is None:
            found.add(s)
            continue
        for comp in _bitops.components(adj, s & ~cut):
            stack.append(comp | cut)
    return reduce_to_maximal(Cover.from_masks(g.vertices, sorted(found)))


def _el_partition(adj: list[int], within: int, k) -> list[int]:
    out: list[int] = []
    stack = _bitops.components(adj, within)
    while stack:
        s = stack.pop()
        if s.bit_count() == 1 or k == 1:
            out.append(s)
            continue
        if k == math.inf:
            # no finite graph on >= 2 vertices has infinite edge connectivity
            for v in _bitops.bits(s):
                out.append(1 << v)
            continue
        # a block with two vertices is a single edge, and an edge is a
        # block by itself exactly when it is a bridge
        bridges = [
            b for b in _bitops.biconnected_vertex_sets(adj, s) if b.bit_count() == 2
        ]
        if bridges:
            pruned = list(adj)
            for b in bridges:
                for v in _bitops.bits(b):
                    pruned[v] &= ~b
            stack.extend(_bitops.components(pruned, s))
            continue
        if k == 2:
            out.append(s)
            continue
        side = _bitops.edge_cut_below(adj, s, k)
        if side is None:
            out.append(s)
        else:
            stack.append(side)
            stack.append(s & ~side)
    return out


def max_edge_connected_subgraphs(g: Graph, k, clique_exception: bool = False) -> Cover:
    """Maximal vertex sets qualifying at edge-connectivity level k.

    Standard convention (default): qualifying means the induced subgraph
    has no edge cut of weight below k (singletons qualify trivially). The
    result is a partition, found by recursively splitting on cuts of
    weight < k; any qualifying subset spanning such a cut would inherit a
    small cut of its own, so splitting never separates one.

    With ``clique_exception`` a complete subgraph on at most k vertices
    also qualifies; every maximal clique then qualifies at every k (a
    clique on m vertices is (m-1)-edge-connected), so the result is the
    maximal elements of the standard blocks plus the maximal cliques, and
    blocks may overlap.
    """
    _check_level(k)
    adj = g._adj
    everything = _bitops.full_mask(len(g.vertices))
    parts = _el_partition(adj, everything, k)
    if clique_exception:
        merged = set(parts)
        merged.update(_bitops.maximal_cliques(adj, everything))
        return reduce_to_maximal(Cover.from_masks(g.vertices, sorted(merged)))
    cover = Cover.from_masks(g.vertices, parts)
    if not cover.is_partition():
        raise AssertionError("edge-connectivity blocks must partition the vertices")
    return cover


def bk_closure(g: Graph, k) -> Graph:
    """Closure under: join a, b when some complete subgraph of size k is
    adjacent to both. Least fixed point; see _bitops.closure_bk."""
    _check_level(k)
    return Graph.from_masks(g.vertices, _bitops.closure_bk(g._adj, k, relaxed=False))


def bk_star_closure(g: Graph, k) -> Graph:
    """Closure under: join a, b when they have at least k common neighbors."""
    _check_level(k)
    return Graph.from_masks(g.vertices, _bitops.closure_bk(g._adj, k, relaxed=True))


def write_dot(g: Graph) -> str:
    """Graphviz text for the graph; vertices and edges in canonical order."""
    lines = ["graph G {"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for u, v in sorted(g.edges):
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_edge_list(g: Graph) -> str:
    """Header ``n <vertex-count>``, then one ``u v`` line per edge.

    Vertices without edges appear as single-token lines so the graph
    round-trips. Labels must be whitespace-free in this format.
    """
    for v in g.vertices:
        if any(c.isspace() for c in v):
            raise InputFormatError(
                f"label {v!r} contains whitespace; not representable as an edge list"
            )
    lines = [f"n {len(g.vertices)}"]
    touched = set()
    for u, v in sorted(g.edges):
        touched.add(u)
        touched.add(v)
        lines.append(f"{u} {v}")
    for v in g.vertices:
        if v not in touched:
            lines.append(v)
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Graph:
    """Parse the edge-list format written by write_edge_list."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [(i + 1, ln) for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
    if not lines:
        raise InputFormatError("empty edge-list input")
    head_no, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] != "n":
        raise InputFormatError(
            f"line {head_no}: expected header 'n <vertex-count>', got {head!r}"
        )
    try:
        declared = int(parts[1])
    except ValueError:
        raise InputFormatError(f"line {head_no}: vertex count {parts[1]!r} is not an integer")
    labels: set[str] = set()
    edges: list[tuple[str, str]] = []
    for no, ln in lines[1:]:
        toks = ln.split()
        if len(toks) == 1:
            labels.add(toks[0])
        elif len(toks) == 2:
            if toks[0] == toks[1]:
                raise InputFormatError(f"line {no}: self-loop {toks[0]!r}")
            labels.update(toks)
            edges.append((toks[0], toks[1]))
        else:
            raise InputFormatError(f"line {no}: expected 'u v' or a lone label, got {ln!r}")
    if len(labels) != declared:
        raise InputFormatError(
            f"header declares {declared} vertices but {len(labels)} distinct labels appear"
        )
    return Graph(sorted(labels), edges)


def relation_from_graph(g: Graph) -> Relation:
    """The adjacency relation of the graph."""
    return Relation.from_masks(g.vertices, g._adj)
