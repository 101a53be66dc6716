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
  every call). The clique exception can be opted into per call. Level 1
  is plain connectivity, level 2 the components left once the bridges
  (the biconnected blocks of two vertices) are removed, higher levels
  split a set on each cut below k that edge_cut_below finds, and at
  k = inf every vertex is a block by itself.

At k >= 3 both decompositions peel each candidate set with one k-core
pass (_bitops.k_core) before any cut search, so the cut kernels see only
sets of minimum degree k or more, and a long tail of low-degree vertices
costs one pass instead of one cut search per vertex. A peeled vertex is
an edge-connectivity block by itself.

The two connectivity decompositions each have a mask kernel,
``_vertex_blocks`` and ``_edge_blocks``, which take adjacency masks and
return block masks that may include nested blocks. The clustering
families read their relations straight off those masks (nesting does not
change which points share a block); ``max_vertex_connected_subgraphs``
and ``max_edge_connected_subgraphs`` wrap them into covers of maximal
blocks.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterable

from . import _bitops
from ._names import _check_level
from .covers import Cover, Relation, reduce_to_maximal
from .errors import InputFormatError, InvalidArgument
from .metric import FiniteMetricSpace, _canonical_labels


class Graph:
    """An undirected simple graph with sorted string vertex labels."""

    __slots__ = ("vertices", "_adj", "_index")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        verts = tuple(sorted(_canonical_labels(vertices)))
        index = {v: i for i, v in enumerate(verts)}
        adj = [0] * len(verts)
        for u, v in edges:
            if u not in index or v not in index:
                raise InvalidArgument(f"edge ({u!r}, {v!r}) has an unknown endpoint")
            if u == v:
                raise InvalidArgument(f"self-loop at {u!r} not allowed")
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
    if not delta >= 0:
        raise InvalidArgument(f"threshold must be nonnegative, got {delta!r}")
    return Graph.from_masks(space.labels, space._adjacency(delta))


def space_from_graph(g: Graph, delta: float) -> FiniteMetricSpace:
    """Metrize a graph: adjacent pairs at delta, the rest at 2 * delta.

    Values in {delta, 2*delta} satisfy the triangle inequality outright,
    and the threshold graph of the result at delta is g again.
    """
    if not 0 <= delta < math.inf:
        raise InvalidArgument(f"edge length must be finite and nonnegative, got {delta!r}")
    delta += 0.0  # -0.0 becomes +0.0
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
    # Graph.from_masks takes its vertices on trust
    return FiniteMetricSpace._of(_canonical_labels(g.vertices), flat)


def connected_components(g: Graph) -> Cover:
    """The partition of the vertices into connected components."""
    comps = _bitops.components(g._adj, _bitops.full_mask(len(g.vertices)))
    return Cover.from_masks(g.vertices, comps)


def _vertex_blocks(adj: list[int], k) -> list[int]:
    """Block masks whose maximal members are the maximal vertex sets of
    the graph ``adj`` qualifying at vertex-connectivity level k; some
    blocks may be nested in others.

    Level 1 is the component partition, level 2 comes from biconnected
    components, and higher levels recurse. A candidate of more than k
    vertices first loses the vertices outside its k-core: each of them,
    with fewer than k neighbours left when it was peeled, lies only in
    qualifying sets that are cliques of at most k vertices among those
    neighbours. Then a cutset smaller than k splits each component of the
    core, and every qualifying subset survives into (component + cutset)
    of the split.
    """
    n = len(adj)
    everything = _bitops.full_mask(n)
    if k == 1:
        return _bitops.components(adj, everything)
    if k == math.inf:
        return _bitops.maximal_cliques(adj, everything)
    if k == 2:
        blocks = _bitops.biconnected_vertex_sets(adj, everything)
        in_blocks = 0
        for b in blocks:
            in_blocks |= b
        return blocks + [1 << v for v in range(n) if not in_blocks >> v & 1]
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
        core, peeled = _bitops.k_core(adj, s, k)
        parts = [s]
        if peeled:
            for v, around in peeled:
                found.update(_bitops.cliques_containing(adj, 1 << v, around))
            parts = _bitops.components(adj, core)
        for part in parts:
            cut = _bitops.vertex_cut_below(adj, part, k)
            if cut is None:
                found.add(part)
                continue
            for comp in _bitops.components(adj, part & ~cut):
                stack.append(comp | cut)
    return list(found)


def max_vertex_connected_subgraphs(g: Graph, k) -> Cover:
    """Maximal vertex sets qualifying at vertex-connectivity level k: the
    maximal blocks of _vertex_blocks.

    Blocks may overlap (in fewer than k vertices).
    """
    _check_level(k)
    return reduce_to_maximal(Cover.from_masks(g.vertices, _vertex_blocks(g._adj, k)))


def _el_partition(adj: list[int], within: int, k) -> list[int]:
    """The maximal k-edge-connected vertex sets of the subgraph induced on
    ``within``, a partition of it (the levels: see the module docstring)."""
    if k == 1:
        return _bitops.components(adj, within)
    if k == math.inf:
        return [1 << v for v in _bitops.bits(within)]
    if k == 2:
        pruned = list(adj)
        for b in _bitops.biconnected_vertex_sets(adj, within):
            if b.bit_count() == 2:
                for v in _bitops.bits(b):
                    pruned[v] &= ~b
        return _bitops.components(pruned, within)
    out: list[int] = []
    stack = _bitops.components(adj, within)
    while stack:
        s = stack.pop()
        core, peeled = _bitops.k_core(adj, s, k)
        parts = [s]
        if peeled:
            out += [1 << v for v, _ in peeled]
            parts = _bitops.components(adj, core)
        for part in parts:
            side = _bitops.edge_cut_below(adj, part, k)
            if side is None:
                out.append(part)
            else:
                stack.append(side)
                stack.append(part & ~side)
    return out


def _edge_blocks(adj: list[int], k, clique_exception: bool = False) -> list[int]:
    """Block masks whose maximal members are the maximal vertex sets of
    the graph ``adj`` qualifying at edge-connectivity level k (see
    max_edge_connected_subgraphs); with the clique exception some blocks
    may be nested in others.

    Without the exception the blocks partition the vertices, and a result
    that does not is an error in the kernel, so it raises.
    """
    n = len(adj)
    everything = _bitops.full_mask(n)
    parts = _el_partition(adj, everything, k)
    if clique_exception:
        return list(set(parts).union(_bitops.maximal_cliques(adj, everything)))
    union = 0
    for m in parts:
        union |= m
    if union != everything or sum(m.bit_count() for m in parts) != n:
        raise AssertionError("edge-connectivity blocks must partition the vertices")
    return parts


def max_edge_connected_subgraphs(g: Graph, k, clique_exception: bool = False) -> Cover:
    """Maximal vertex sets qualifying at edge-connectivity level k: the
    maximal blocks of _edge_blocks.

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
    return reduce_to_maximal(
        Cover.from_masks(g.vertices, _edge_blocks(g._adj, k, clique_exception))
    )


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
