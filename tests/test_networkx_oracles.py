"""The graph kernels against networkx, a test-only oracle.

One low-link DFS gives the blocks of a graph, and the bridges are its
blocks with two vertices; both are compared with networkx on induced
subgraphs given by a ``within`` mask, and so are the maximal cliques
(``find_cliques``). The vertex and edge cut searches are compared with
``node_connectivity`` and ``edge_connectivity``, and the
edge-connectivity partition with ``k_edge_subgraphs``.
"""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from sievecluster import Cover, Graph, max_edge_connected_subgraphs
from sievecluster import _bitops

nx = pytest.importorskip("networkx")


@st.composite
def masked_graphs(draw, max_n=9):
    """Adjacency masks on up to max_n vertices plus a ``within`` mask."""
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    adj = [0] * n
    for e, (i, j) in enumerate(pairs):
        if mask >> e & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    within = draw(st.integers(0, 2**n - 1))
    return adj, within


@st.composite
def two_blobs(draw, max_n=12):
    """Near-complete graphs on the vertex ranges [0, h) and [h, n), with
    a few edges between them, induced on all vertices: degrees are high
    but connectivity is low, so the degree shortcuts do not decide it and
    the flows must find the cut. Random masks seldom look like this."""
    n = draw(st.integers(2, max_n))
    h = draw(st.integers(1, n - 1))
    inside, across = [], []
    for i, j in itertools.combinations(range(n), 2):
        (inside if (i < h) == (j < h) else across).append((i, j))
    edges = set(inside)
    if inside:
        edges -= draw(st.sets(st.sampled_from(inside), max_size=3))
    edges |= draw(st.sets(st.sampled_from(across), max_size=5))
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj, _bitops.full_mask(n)


@st.composite
def dense_graphs(draw, max_n=40):
    """Graphs on up to max_n vertices (past the 16-point cap of
    brute_force_maximal_linked) with a drawn edge density, plus a
    ``within`` mask that is often everything."""
    n = draw(st.integers(1, max_n))
    eighths = draw(st.integers(0, 8))
    rnd = draw(st.randoms(use_true_random=False))
    adj = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if rnd.randrange(8) < eighths:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    full = _bitops.full_mask(n)
    within = draw(st.one_of(st.just(full), st.integers(0, full)))
    return adj, within


def _nx_graph(adj, within):
    g = nx.Graph()
    g.add_nodes_from(_bitops.bits(within))
    for v in _bitops.bits(within):
        g.add_edges_from((v, w) for w in _bitops.bits(adj[v] & within) if w > v)
    return g


@settings(max_examples=200)
@given(masked_graphs())
def test_blocks_and_bridges_match_networkx(graph):
    adj, within = graph
    g = _nx_graph(adj, within)
    blocks = sorted(_bitops.biconnected_vertex_sets(adj, within))
    assert blocks == sorted(_bitops.mask_of(c) for c in nx.biconnected_components(g))
    bridges = sorted(b for b in blocks if b.bit_count() == 2)
    assert bridges == sorted(_bitops.mask_of(e) for e in nx.bridges(g))


@settings(max_examples=300)
@given(st.one_of(masked_graphs(), dense_graphs()))
def test_maximal_cliques_match_find_cliques(graph):
    adj, within = graph
    ours = sorted(_bitops.maximal_cliques(adj, within))
    g = _nx_graph(adj, within)
    assert ours == sorted(_bitops.mask_of(c) for c in nx.find_cliques(g))


@given(masked_graphs(), st.sampled_from([2, 3, 4]))
def test_edge_partition_matches_k_edge_subgraphs(graph, k):
    adj, _ = graph
    labels = [f"v{i}" for i in range(len(adj))]
    ours = max_edge_connected_subgraphs(Graph.from_masks(labels, adj), k)
    full = _nx_graph(adj, _bitops.full_mask(len(adj)))
    theirs = Cover(labels, [[labels[v] for v in c] for c in nx.k_edge_subgraphs(full, k)])
    assert ours == theirs


@settings(max_examples=400)
@given(st.one_of(masked_graphs(), two_blobs()), st.integers(1, 4))
def test_vertex_cut_below_matches_node_connectivity(graph, k):
    adj, within = graph
    g = _nx_graph(adj, within)
    assume(g.number_of_nodes() > k and nx.is_connected(g))
    cut = _bitops.vertex_cut_below(adj, within, k)
    assert (cut is None) == (nx.node_connectivity(g) >= k)
    if cut is not None:
        assert cut & ~within == 0 and cut.bit_count() < k
        assert not nx.is_connected(g.subgraph(set(_bitops.bits(within & ~cut))))


@settings(max_examples=400)
@given(st.one_of(masked_graphs(), two_blobs()), st.integers(1, 4))
def test_edge_cut_below_matches_edge_connectivity(graph, k):
    adj, within = graph
    g = _nx_graph(adj, within)
    assume(g.number_of_nodes() >= 2)
    side = _bitops.edge_cut_below(adj, within, k)
    assert (side is None) == (nx.edge_connectivity(g) >= k)
    if side is not None:
        assert side and side & ~within == 0 and side != within
        crossing = sum((adj[v] & within & ~side).bit_count() for v in _bitops.bits(side))
        assert crossing < k
