"""The graph kernels against networkx, a test-only oracle.

One low-link DFS gives the blocks of a graph, and the bridges are its
blocks with two vertices; both are compared with networkx on induced
subgraphs given by a ``within`` mask. The edge-connectivity partition is
compared with ``k_edge_subgraphs``.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

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


@given(masked_graphs(), st.sampled_from([2, 3]))
def test_edge_partition_matches_k_edge_subgraphs(graph, k):
    adj, _ = graph
    labels = [f"v{i}" for i in range(len(adj))]
    ours = max_edge_connected_subgraphs(Graph.from_masks(labels, adj), k)
    full = _nx_graph(adj, _bitops.full_mask(len(adj)))
    theirs = Cover(labels, [[labels[v] for v in c] for c in nx.k_edge_subgraphs(full, k)])
    assert ours == theirs
