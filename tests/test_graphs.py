"""Threshold graphs, connectivity decompositions, and closure rules.

The decompositions are checked against brute-force subset enumeration:
qualification of every vertex subset is decided by definition (removal of
every small vertex set / every small edge set), then reduced to maximal
blocks. That oracle is exponential but exact on small graphs.
"""

import itertools
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from sievecluster import (
    Cover,
    Graph,
    InputFormatError,
    bk_closure,
    bk_star_closure,
    connected_components,
    max_edge_connected_subgraphs,
    max_vertex_connected_subgraphs,
    random_metric,
    read_edge_list,
    reduce_to_maximal,
    refines,
    space_from_graph,
    threshold_graph,
    vertex_linkage,
    write_dot,
    write_edge_list,
)
from sievecluster import _bitops
from sievecluster.errors import InvalidArgument
from sievecluster.graphs import _el_partition, _vertex_blocks
from sievecluster.rng import SplitMix64

from conftest import graph_space, king_lattice


def _labels(n):
    return [f"v{i}" for i in range(n)]


def make_graph(n, edges):
    return Graph(_labels(n), [(f"v{i}", f"v{j}") for i, j in edges])


def _connected_subset(adjsets, verts):
    verts = set(verts)
    if not verts:
        return True
    seen = {next(iter(verts))}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for w in adjsets[v] & verts:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen == verts


def _adjsets(g):
    out = {v: set() for v in g.vertices}
    for u, v in g.edges:
        out[u].add(v)
        out[v].add(u)
    return out


def brute_vertex_decomposition(g, k):
    """Maximal subsets whose induced subgraph qualifies at level k:
    complete graphs on at most k vertices, or subsets that stay connected
    under removal of every k-1 vertices."""
    adj = _adjsets(g)
    qualifying = []
    verts = list(g.vertices)
    for r in range(1, len(verts) + 1):
        for sub in itertools.combinations(verts, r):
            s = set(sub)
            if r <= k:
                if all(b in adj[a] for a, b in itertools.combinations(sub, 2)):
                    qualifying.append(sub)
                continue
            if not _connected_subset(adj, s):
                continue
            ok = True
            for cut in itertools.combinations(sub, k - 1):
                if not _connected_subset(adj, s - set(cut)):
                    ok = False
                    break
            if ok:
                qualifying.append(sub)
    cover = Cover(g.vertices, [tuple(sorted(s)) for s in qualifying])
    return reduce_to_maximal(cover)


def brute_edge_decomposition(g, k):
    """Maximal subsets whose induced subgraph is k-edge-connected
    (singletons always qualify), plus the partition property."""
    adj = _adjsets(g)
    qualifying = [(v,) for v in g.vertices]
    verts = list(g.vertices)
    for r in range(2, len(verts) + 1):
        for sub in itertools.combinations(verts, r):
            s = set(sub)
            if not _connected_subset(adj, s):
                continue
            edges = [
                (a, b) for a, b in itertools.combinations(sub, 2) if b in adj[a]
            ]
            ok = True
            for cut_size in range(min(k, len(edges) + 1)):
                for cut in itertools.combinations(edges, cut_size):
                    pruned = {v: adj[v] - {w for e in cut for w in e if v in e} for v in s}
                    pruned = {
                        v: {w for w in adj[v] & s if (v, w) not in cut and (w, v) not in cut}
                        for v in s
                    }
                    if not _connected_subset(pruned, s):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                qualifying.append(sub)
    cover = Cover(g.vertices, [tuple(sorted(s)) for s in qualifying])
    return reduce_to_maximal(cover)


def random_graph(n, seed, p_numerator=1, p_denominator=2):
    rng = SplitMix64(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.randint(p_denominator) < p_numerator:
                edges.append((i, j))
    return make_graph(n, edges)


def test_graph_rejects_loops_and_unknown_vertices():
    with pytest.raises(ValueError):
        Graph(["a"], [("a", "a")])
    with pytest.raises(ValueError):
        Graph(["a", "b"], [("a", "z")])


def test_graph_degree_equality_and_repr():
    g = Graph(["c", "a", "b"], [("b", "a"), ("b", "c")])
    assert [g.degree(v) for v in "abc"] == [1, 2, 1]
    assert g == Graph(["a", "b", "c"], [("a", "b"), ("c", "b")])
    assert g != Graph(["a", "b", "c"], [("a", "b")])
    assert g != Graph(["a", "b", "d"], [("a", "b"), ("b", "d")])
    assert g != "g"
    assert repr(g) == "Graph(3 vertices, 2 edges)"


def test_threshold_graph_inclusive_boundary(x3):
    g1 = threshold_graph(x3, 1.0)
    assert g1.edge_count == 2 and g1.has_edge("a", "b") and not g1.has_edge("a", "c")
    g2 = threshold_graph(x3, 2.0)
    assert g2.edge_count == 3
    g0 = threshold_graph(x3, 0.5)
    assert g0.edge_count == 0
    for delta in (-1.0, math.nan):  # a NaN threshold used to give no edges
        with pytest.raises(InvalidArgument, match="threshold must be nonnegative"):
            threshold_graph(x3, delta)


def test_space_from_graph_roundtrip():
    g = make_graph(4, [(0, 1), (2, 3)])
    x = space_from_graph(g, 1.5)
    assert threshold_graph(x, 1.5).edges == g.edges
    assert x.distance("v0", "v2") == 3.0


@pytest.mark.parametrize("delta", [math.inf, math.nan, -1.0])
def test_space_from_graph_rejects_non_finite_or_negative_length(delta):
    # at delta = inf every off-diagonal entry would be inf: the graph is lost
    with pytest.raises(ValueError, match="finite and nonnegative"):
        space_from_graph(make_graph(3, [(0, 1)]), delta)


def test_connected_components():
    g = make_graph(5, [(0, 1), (1, 2)])
    c = connected_components(g)
    assert c.blocks == (("v0", "v1", "v2"), ("v3",), ("v4",))
    assert c.is_partition()


def test_vl_examples(four_cycle, bowtie):
    g = threshold_graph(four_cycle, 1.0)
    assert max_vertex_connected_subgraphs(g, 2).blocks == (("a", "b", "c", "d"),)
    g = threshold_graph(bowtie, 1.0)
    assert max_vertex_connected_subgraphs(g, 2).blocks == (
        ("1", "2", "3"),
        ("3", "4", "5"),
    )


def test_vl_k1_is_components():
    for seed in range(10):
        g = random_graph(6, 100 + seed)
        assert max_vertex_connected_subgraphs(g, 1) == connected_components(g)


def test_el_examples(bowtie):
    g = threshold_graph(bowtie, 1.0)
    assert max_edge_connected_subgraphs(g, 2).blocks == (("1", "2", "3", "4", "5"),)
    tree = make_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    assert all(len(b) == 1 for b in max_edge_connected_subgraphs(tree, 2).blocks)
    for seed in range(10):
        g = random_graph(6, 200 + seed)
        assert max_edge_connected_subgraphs(g, 1) == connected_components(g)


def test_el_output_is_partition():
    for seed in range(30):
        g = random_graph(7, 300 + seed)
        for k in (1, 2, 3):
            assert max_edge_connected_subgraphs(g, k).is_partition()


def test_el_clique_exception_adjoins_cliques():
    # a triangle with a pendant edge: standard EL^2 gives {triangle} + 2
    # singletons; the exception variant keeps the pendant edge as a clique
    g = make_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    std = max_edge_connected_subgraphs(g, 2)
    assert std.blocks == (("v0", "v1", "v2"), ("v3",), ("v4",))
    exc = max_edge_connected_subgraphs(g, 2, clique_exception=True)
    assert exc.blocks == (("v0", "v1", "v2"), ("v2", "v3"), ("v3", "v4"))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_vertex_decomposition_matches_brute_force_random(k):
    for seed in range(25):
        g = random_graph(5 + seed % 4, 400 + 31 * seed + k)
        assert max_vertex_connected_subgraphs(g, k) == brute_vertex_decomposition(
            g, k
        ), f"seed {seed}"


@pytest.mark.parametrize("k", [2, 3, 4])
def test_edge_decomposition_matches_brute_force_random(k):
    for seed in range(25):
        g = random_graph(5 + seed % 3, 500 + 31 * seed + k)
        assert max_edge_connected_subgraphs(g, k) == brute_edge_decomposition(
            g, k
        ), f"seed {seed}"


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    return make_graph(n, [p for e, p in enumerate(pairs) if mask >> e & 1])


@given(small_graphs(), st.sampled_from([3, 4]))
def test_vertex_decomposition_blocks_are_maximal(g, k):
    # the oracle keeps exactly the inclusion-maximal qualifying subsets, so
    # agreement means no block extends by a vertex and still qualifies
    assert max_vertex_connected_subgraphs(g, k) == brute_vertex_decomposition(g, k)


def test_decompositions_exhaustive_four_vertices():
    pairs = list(itertools.combinations(range(4), 2))
    for mask in range(1 << len(pairs)):
        edges = [p for e, p in enumerate(pairs) if mask >> e & 1]
        g = make_graph(4, edges)
        for k in (2, 3):
            assert max_vertex_connected_subgraphs(g, k) == brute_vertex_decomposition(g, k)
            assert max_edge_connected_subgraphs(g, k) == brute_edge_decomposition(g, k)


def test_vl_chain_refinement():
    for seed in range(15):
        g = random_graph(7, 600 + seed)
        covers = [max_vertex_connected_subgraphs(g, k) for k in (1, 2, 3, 4, 5)]
        for finer, coarser in zip(covers[1:], covers):
            assert refines(finer, coarser)


def test_strict_closure_on_wide_bipartite_graph_does_not_recurse():
    # K_{2,1200}: the two hubs share 1200 pairwise non-adjacent neighbours,
    # so the size-2 clique search drops 1200 candidates one by one
    n = 1202
    adj = [0] * n
    for hub in (0, 1):
        for v in range(2, n):
            adj[hub] |= 1 << v
            adj[v] |= 1 << hub
    start = time.perf_counter()
    assert _bitops.closure_bk(adj, 2, relaxed=False) == adj
    assert time.perf_counter() - start < 20.0


def test_bk_closure_examples():
    path = make_graph(3, [(0, 1), (1, 2)])
    assert bk_closure(path, 2).edges == path.edges
    assert bk_star_closure(path, 2).edges == path.edges
    cyc = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert bk_closure(cyc, 2).edges == cyc.edges
    closed = bk_star_closure(cyc, 2)
    assert closed.edge_count == 6  # K4
    complete = make_graph(4, list(itertools.combinations(range(4), 2)))
    assert bk_closure(complete, 2).edges == complete.edges
    empty = make_graph(3, [])
    assert bk_star_closure(empty, 2).edges == frozenset()


def _randomized_order_closure(g, k, relaxed, seed):
    """Apply the closure rule one randomly chosen applicable pair at a
    time; confluence means the fixed point matches the library's."""
    rng = SplitMix64(seed)
    adj = _adjsets(g)
    verts = list(g.vertices)
    while True:
        applicable = []
        for a, b in itertools.combinations(verts, 2):
            if b in adj[a]:
                continue
            common = adj[a] & adj[b]
            if relaxed:
                if len(common) >= k:
                    applicable.append((a, b))
                continue
            for s in itertools.combinations(sorted(common), k):
                if all(y in adj[x] for x, y in itertools.combinations(s, 2)):
                    applicable.append((a, b))
                    break
        if not applicable:
            break
        a, b = applicable[rng.randint(len(applicable))]
        adj[a].add(b)
        adj[b].add(a)
    return frozenset(frozenset((a, b)) for a in verts for b in adj[a])


@pytest.mark.parametrize("relaxed", [False, True])
def test_closures_match_randomized_order(relaxed):
    close = bk_star_closure if relaxed else bk_closure
    for seed in range(20):
        g = random_graph(4 + seed % 5, 700 + seed)
        for k in (1, 2, 3):
            got = close(g, k)
            expect = _randomized_order_closure(g, k, relaxed, 900 + seed)
            assert frozenset(map(frozenset, got.edges)) == expect


def test_closures_idempotent_and_ordered():
    for seed in range(20):
        g = random_graph(6, 800 + seed)
        for k in (1, 2, 3):
            a = bk_closure(g, k)
            b = bk_star_closure(g, k)
            assert a.edges <= b.edges
            assert bk_closure(a, k).edges == a.edges
            assert bk_star_closure(b, k).edges == b.edges
            assert g.edges <= a.edges


@st.composite
def small_graphs(draw):
    """A graph on 1 to 14 vertices, each pair an edge with one drawn
    probability."""
    n = draw(st.integers(1, 14))
    p = draw(st.sampled_from([0.2, 0.4, 0.6, 0.8]))
    pairs = list(itertools.combinations(range(n), 2))
    picks = draw(st.lists(st.floats(0.0, 1.0), min_size=len(pairs), max_size=len(pairs)))
    return make_graph(n, [e for e, u in zip(pairs, picks) if u < p])


def _closed_pairs(g, adj):
    return frozenset(map(frozenset, Graph.from_masks(g.vertices, adj).edges))


@settings(max_examples=300, deadline=None)
@given(
    small_graphs(),
    st.sampled_from([1, 2, 3, 4, 5, math.inf]),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_closure_bk_matches_randomized_order_oracle(g, k, relaxed, seed):
    got = _bitops.closure_bk(g.adjacency_masks(), k, relaxed)
    # no graph on n vertices has a clique of n + 1, nor two vertices with
    # n + 1 common neighbours: the oracle's finite stand-in for inf
    size = len(g.vertices) + 1 if k == math.inf else k
    assert _closed_pairs(g, got) == _randomized_order_closure(g, size, relaxed, seed)


@pytest.mark.parametrize("adj, k, relaxed", [
    # a pass that revisited fewer vertices than the two ends of each new
    # edge and their neighbours would stop short of the fixed point on these
    ([4128, 396, 1154, 5154, 4160, 4233, 4496, 614, 66, 4224, 12, 0, 633], 3, True),
    ([1952, 20, 2, 41408, 4098, 3329, 264, 1033, 2153, 23553, 673, 800, 528, 8, 512, 8], 3, True),
    ([1412, 5504, 3209, 804, 3104, 4248, 4480, 103, 75, 1032, 535, 4116, 2146], 2, False),
])
def test_closure_bk_revisits_the_vertices_a_new_edge_touches(adj, k, relaxed):
    g = Graph.from_masks([f"v{i:02d}" for i in range(len(adj))], adj)
    got = _bitops.closure_bk(adj, k, relaxed)
    assert _closed_pairs(g, got) == _randomized_order_closure(g, k, relaxed, 0)


def test_closure_bk_on_a_king_lattice():
    # the shape of the benchmark's bkstar[k=3] input: the relaxed rule fills
    # it to the complete graph; the strict rule adds nothing, as no common
    # neighbourhood of two non-adjacent vertices holds a triangle
    adj = king_lattice(10, 8)
    full = _bitops.full_mask(80)
    assert _bitops.closure_bk(adj, 3, relaxed=True) == [full & ~(1 << v) for v in range(80)]
    assert _bitops.closure_bk(adj, 3, relaxed=False) == adj


@settings(max_examples=100, deadline=None)
@given(small_graphs(), st.lists(st.booleans(), min_size=91, max_size=91),
       st.sampled_from([1, 2, 3]), st.booleans())
def test_closure_bk_resumes_from_a_smaller_fixed_point(g, keep, k, relaxed):
    # closing a graph joined with the closure of a subgraph gives the
    # closure of the graph: how the bisected sieves resume
    adj = g.adjacency_masks()
    pairs = [(a, b) for a in range(len(adj)) for b in _bitops.bits(adj[a]) if b > a]
    sub = [0] * len(adj)
    for (a, b), kept in zip(pairs, keep):
        if kept:
            sub[a] |= 1 << b
            sub[b] |= 1 << a
    start = _bitops.closure_bk(sub, k, relaxed)
    resumed = _bitops.closure_bk([x | y for x, y in zip(adj, start)], k, relaxed)
    assert resumed == _bitops.closure_bk(adj, k, relaxed)


@pytest.mark.parametrize("k", [2, 3])
def test_vertex_cut_through_the_minimum_degree_vertex(k):
    # vertex 0, of least degree 2k, joins k vertices of each of two
    # (2k+1)-cliques: every non-neighbour is k-connected to it, and only a
    # pair of its neighbours, one in each clique, shows the cut {0}
    m = 2 * k + 1
    adj = [0] * (1 + 2 * m)
    for first in (1, 1 + m):
        block = _bitops.mask_of(range(first, first + m))
        for v in range(first, first + m):
            adj[v] = block & ~(1 << v)
        for v in range(first, first + k):
            adj[v] |= 1
            adj[0] |= 1 << v
    everything = _bitops.full_mask(len(adj))
    cut = _bitops.vertex_cut_below(adj, everything, k)
    assert cut is not None and cut.bit_count() < k
    assert len(_bitops.components(adj, everything & ~cut)) > 1


def _counted_flows(monkeypatch):
    """A list that gets one entry per capped flow (_bitops._augment)."""
    flows = []
    augment = _bitops._augment

    def counted(net, source, sink, limit):
        flows.append((source, sink))
        return augment(net, source, sink, limit)

    monkeypatch.setattr(_bitops, "_augment", counted)
    return flows


def _counted_calls(monkeypatch, name):
    """A list that gets the ``within`` mask of each call of a _bitops
    cut kernel."""
    calls = []
    kernel = getattr(_bitops, name)

    def counted(adj, within, k):
        calls.append(within)
        return kernel(adj, within, k)

    monkeypatch.setattr(_bitops, name, counted)
    return calls


def test_cut_searches_skip_a_tail_of_low_degree_vertices(monkeypatch):
    # a 16 x 16 king lattice, then a 256-vertex path off its last corner,
    # numbered after it, at k = 3: one k-core pass peels the path, and
    # each decomposition makes one cut search, on the lattice (a search
    # per peeled vertex made 513 edge and 257 vertex cut searches)
    edge_cuts = _counted_calls(monkeypatch, "edge_cut_below")
    vertex_cuts = _counted_calls(monkeypatch, "vertex_cut_below")
    adj = king_lattice(16, 16) + [0] * 256
    n = len(adj)
    for v in range(256, n):
        adj[v] |= 1 << (v - 1)
        adj[v - 1] |= 1 << v
    lattice = _bitops.full_mask(256)
    parts = _el_partition(adj, _bitops.full_mask(n), 3)
    assert sorted(parts) == [lattice] + [1 << v for v in range(256, n)]
    blocks = set(_vertex_blocks(adj, 3))
    maximal = {b for b in blocks if not any(b != c and b & c == b for c in blocks)}
    assert maximal == {lattice} | {3 << v for v in range(255, n - 1)}
    assert edge_cuts == [lattice] and vertex_cuts == [lattice]


def test_vertex_cut_flows_on_a_king_block(monkeypatch):
    # a corner has degree 3 and 12 non-neighbours, its neighbours are
    # pairwise adjacent: 12 flows (every non-adjacent pair would be 78)
    flows = _counted_flows(monkeypatch)
    assert _bitops.vertex_cut_below(king_lattice(4, 4), _bitops.full_mask(16), 3) is None
    assert len(flows) <= 12


def test_vertex_cut_flows_on_a_king_lattice(monkeypatch):
    # the corner's four-vertex block grows over the lattice: one flow to a
    # vertex with two neighbours in it, and every other vertex then has
    # three (a flow per non-neighbour of the corner would be 252)
    flows = _counted_flows(monkeypatch)
    assert _bitops.vertex_cut_below(king_lattice(16, 16), _bitops.full_mask(256), 3) is None
    assert len(flows) <= 2


def test_edge_cut_flows_on_a_king_block(monkeypatch):
    # most vertices join with 3 edges into the grown set, without a flow
    # (a flow to every other vertex would be 63)
    flows = _counted_flows(monkeypatch)
    assert _bitops.edge_cut_below(king_lattice(8, 8), _bitops.full_mask(64), 3) is None
    assert len(flows) < 63


def test_vertex_linkage_flows_at_200_points(monkeypatch):
    # one 3-connected block, where trying every non-adjacent pair takes
    # 18,636 flows
    flows = _counted_flows(monkeypatch)
    vertex_linkage(random_metric(200, 1), 0.15, 3)
    assert len(flows) <= 1864


def test_vertex_cut_skips_pairs_with_k_common_neighbours(monkeypatch):
    # the octahedron K(2,2,2), vertex i opposite i ^ 1: every non-adjacent
    # pair has 4 common neighbours, so no pair needs a flow at k = 3 (a
    # flow per pair around vertex 0 would be 3)
    flows = _counted_flows(monkeypatch)
    octahedron = [0b111111 & ~(1 << v) & ~(1 << (v ^ 1)) for v in range(6)]
    assert _bitops.vertex_cut_below(octahedron, 0b111111, 3) is None
    assert flows == []


def test_vertex_cut_builds_no_network_without_a_flow(monkeypatch):
    # the split network is built on the first flow, and neither graph
    # needs one at k = 3: the octahedron, and the K4 on 0-3 with 4 joined
    # to 1, 2, 3 and 5 to 2, 3, 4, where 5 has only two common neighbours
    # with 0 but three neighbours in the set grown from 0
    networks = []
    network = _bitops._network

    def counted(size, arc_pairs):
        networks.append(size)
        return network(size, arc_pairs)

    monkeypatch.setattr(_bitops, "_network", counted)
    octahedron = [0b111111 & ~(1 << v) & ~(1 << (v ^ 1)) for v in range(6)]
    assert _bitops.vertex_cut_below(octahedron, 0b111111, 3) is None
    stacked = make_graph(6, [*itertools.combinations(range(4), 2), (1, 4), (2, 4), (3, 4),
                             (2, 5), (3, 5), (4, 5)]).adjacency_masks()
    assert _bitops.vertex_cut_below(stacked, 0b111111, 3) is None
    assert networks == []


@pytest.mark.parametrize(
    "k, blocks",
    [
        (2, [range(4), range(4, 8), range(8, 11), [11], [12], [13]]),
        (3, [range(4), range(4, 8)] + [[v] for v in range(8, 14)]),
        (4, [[v] for v in range(14)]),
    ],
)
def test_edge_partition_reads_bridges_only_at_level_two(monkeypatch, k, blocks):
    # K4 -bridge- K4 -bridge- triangle, a pendant path off the triangle and
    # an isolated vertex: one bridge pass decides k = 2, and the cut search
    # alone the higher levels, bridges included
    passes = []
    biconnected = _bitops.biconnected_vertex_sets

    def counted(adj, within):
        passes.append(within)
        return biconnected(adj, within)

    monkeypatch.setattr(_bitops, "biconnected_vertex_sets", counted)
    edges = list(itertools.combinations(range(4), 2))
    edges += itertools.combinations(range(4, 8), 2)
    edges += [(3, 4), (7, 8), (8, 9), (9, 10), (8, 10), (10, 11), (11, 12)]
    got = max_edge_connected_subgraphs(make_graph(14, edges), k)
    assert got == Cover(_labels(14), [[f"v{v}" for v in b] for b in blocks])
    assert len(passes) == (k == 2)


def test_edge_cut_search_peels_a_tree_vertex_by_vertex(monkeypatch):
    # a binary tree at k = 3: one k-core pass peels every vertex, looking
    # at each vertex once and at each edge once from its peeled end, and
    # no cut search runs; a search per peeled vertex that listed the
    # vertices left would be n^2 / 2
    seen = []
    bits = _bitops.bits

    def counted(mask):
        for v in bits(mask):
            seen.append(v)
            yield v

    monkeypatch.setattr(_bitops, "bits", counted)
    cuts = _counted_calls(monkeypatch, "edge_cut_below")
    n = 1000
    adj = [0] * n
    for v in range(1, n):
        adj[v] |= 1 << (v - 1) // 2
        adj[(v - 1) // 2] |= 1 << v
    assert sorted(_el_partition(adj, _bitops.full_mask(n), 3)) == [1 << v for v in range(n)]
    assert len(seen) <= 2 * n
    assert cuts == []


@given(st.integers(0, 2**15 - 1))
def test_threshold_monotone_in_delta(mask):
    pairs = list(itertools.combinations(range(6), 2))
    edges = [p for e, p in enumerate(pairs) if mask >> e & 1]
    x = graph_space(6, edges)
    small = threshold_graph(x, 1.0)
    large = threshold_graph(x, 2.0)
    assert small.edges <= large.edges


def test_dot_output(four_cycle):
    g = threshold_graph(four_cycle, 1.0)
    text = write_dot(g)
    assert text.startswith("graph G {")
    assert '"a" -- "b";' in text
    assert text.count("--") == 4


def test_edge_list_roundtrip():
    g = make_graph(5, [(0, 1), (2, 3)])
    text = write_edge_list(g)
    again = read_edge_list(text)
    assert again.vertices == g.vertices
    assert again.edges == g.edges


def test_edge_list_errors():
    with pytest.raises(InputFormatError):
        read_edge_list("nonsense header\n")
    with pytest.raises(InputFormatError):
        read_edge_list("n 2\na a\n")
    with pytest.raises(InputFormatError):
        read_edge_list("n 3\na b\n")  # declares 3 vertices, names 2
