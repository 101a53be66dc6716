"""Graph kernels on int-bitmask adjacency.

A graph on n vertices (n is len(adj)) is a list of Python ints: bit j of
adj[i] is set iff i and j are adjacent. No self-bits. Arbitrary-width ints
make subset algebra (intersection, complement within a mask, popcount) a
single machine-level operation per word, which keeps the exhaustive
verification workloads and the 2000-point threshold graphs fast without any
compiled code.

Every routine takes an optional ``within`` mask restricting attention to an
induced subgraph, and all tie-breaking is by lowest vertex index, so results
are deterministic.
"""

from __future__ import annotations

import math


def bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def full_mask(n: int) -> int:
    return (1 << n) - 1


def adjacency_from_bool(matrix) -> list[int]:
    """Rows of a square boolean numpy array as bitmasks (diagonal cleared)."""
    import numpy as np

    mat = np.array(matrix, dtype=bool)
    np.fill_diagonal(mat, False)
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def components(adj: list[int], within: int | None = None) -> list[int]:
    """Connected component masks of the induced subgraph, in order of
    their lowest vertex."""
    if within is None:
        within = full_mask(len(adj))
    comps = []
    unseen = within
    while unseen:
        start = unseen & -unseen
        seen = start
        frontier = start
        while frontier:
            reach = 0
            m = frontier
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                reach |= adj[v]
            frontier = reach & within & ~seen
            seen |= frontier
        comps.append(seen)
        unseen &= ~seen
    return comps


def is_complete(adj: list[int], mask: int) -> bool:
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        if adj[v] & mask != mask ^ (1 << v):
            return False
    return True


def degeneracy_order(adj: list[int], within: int) -> list[int]:
    """Vertices by repeated removal of a minimum-degree vertex. No kernel
    calls it; the benchmark tracer (bench/tracer.py) wraps the name."""
    order = []
    remaining = within
    while remaining:
        best_v = -1
        best_d = None
        m = remaining
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            d = (adj[v] & remaining).bit_count()
            if best_d is None or d < best_d:
                best_d = d
                best_v = v
        order.append(best_v)
        remaining ^= 1 << best_v
    return order


def maximal_cliques(adj: list[int], within: int | None = None) -> list[int]:
    """All maximal cliques of the induced subgraph (singletons included).

    Run per connected component through cliques_containing. Complete
    components, singletons among them, are emitted without that call.
    """
    if within is None:
        within = full_mask(len(adj))
    out: list[int] = []
    for comp in components(adj, within):
        if is_complete(adj, comp):
            out.append(comp)
        else:
            out += cliques_containing(adj, 0, comp)
    return out


def cliques_containing(adj: list[int], clique: int, cand: int) -> list[int]:
    """Every maximal clique of the subgraph induced on clique | cand that
    contains the clique: the clique joined with each maximal clique of
    the subgraph induced on cand. Every vertex of cand must be adjacent to
    every vertex of the clique.

    Bron-Kerbosch with Tomita pivoting on an explicit stack, seeded with
    (clique, cand, no excluded vertices). With an empty clique and a
    connected cand these are the maximal cliques of G[cand]; with the two
    ends of a new edge uv and their common neighbourhood they are the
    maximal cliques the edge creates. A complete cand is joined directly,
    so unions of complete blocks (equivalence relations) stay linear.
    """
    if is_complete(adj, cand):
        return [clique | cand]
    out: list[int] = []
    # frames [clique, P, X, branch set]; None until the pivot is chosen
    stack: list[list] = [[clique, cand, 0, None]]
    while stack:
        frame = stack[-1]
        clique, P, X, branch = frame
        if branch is None:
            # Tomita pivot: the vertex of P | X with most neighbours in
            # P, lowest index on ties; branch on P minus its neighbours
            best = -1
            m = P | X
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                c = (adj[u] & P).bit_count()
                if c > best:
                    best = c
                    pivot = u
            branch = P & ~adj[pivot]
        if not branch:
            stack.pop()
            continue
        low = branch & -branch
        v = low.bit_length() - 1
        frame[1:] = P ^ low, X | low, branch ^ low
        P &= adj[v]
        X &= adj[v]
        if P:
            stack.append([clique | low, P, X, None])
        elif not X:
            out.append(clique | low)
    return out


def biconnected_vertex_sets(adj: list[int], within: int) -> list[int]:
    """Vertex masks of the biconnected components (edge-based blocks).

    Every component containing at least one edge contributes its blocks;
    isolated vertices contribute nothing (callers add singletons).
    """
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    out: list[int] = []
    timer = 0
    for root in bits(within):
        if root in disc:
            continue
        disc[root] = low[root] = timer
        timer += 1
        if adj[root] & within == 0:
            continue
        edge_stack: list[tuple[int, int]] = []
        frames: list[list[int]] = [[root, -1, adj[root] & within]]
        while frames:
            frame = frames[-1]
            v, parent, rem = frame
            if rem:
                lowbit = rem & -rem
                w = lowbit.bit_length() - 1
                frame[2] = rem ^ lowbit
                if w == parent:
                    continue
                if w in disc:
                    if disc[w] < disc[v]:
                        edge_stack.append((v, w))
                        if disc[w] < low[v]:
                            low[v] = disc[w]
                else:
                    edge_stack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    frames.append([w, v, adj[w] & within])
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] >= disc[u]:
                        block = 0
                        while True:
                            e = edge_stack.pop()
                            block |= (1 << e[0]) | (1 << e[1])
                            if e == (u, v):
                                break
                        out.append(block)
        if edge_stack:
            raise AssertionError("edges left on the stack after a block search")
    return out


def _network(size: int, arc_pairs) -> tuple[list[list[int]], list[int], list[int]]:
    """A residual network on nodes 0..size-1 from (u, v, cap, back_cap)
    arc pairs: per-node arc lists, arc heads and residual capacities.
    Arc a runs u -> v and arc a ^ 1 is its reverse v -> u."""
    arcs: list[list[int]] = [[] for _ in range(size)]
    head: list[int] = []
    cap: list[int] = []
    for u, v, c, back in arc_pairs:
        arcs[u].append(len(head))
        head.append(v)
        cap.append(c)
        arcs[v].append(len(head))
        head.append(u)
        cap.append(back)
    return arcs, head, cap


def _augment(net, source: int, sink: int, limit: int) -> list[int] | None:
    """Push up to limit unit paths from source to sink through a network
    from _network, on a fresh copy of its capacities (net is unchanged).
    None when limit paths fit; otherwise the nodes the source still
    reaches in the residual network, the source side of a minimum cut."""
    arcs, head, cap = net
    cap = list(cap)
    for _ in range(limit):
        via = [-1] * len(arcs)  # arc each node was reached by; -1 unseen
        via[source] = -2
        queue = [source]
        for u in queue:
            for a in arcs[u]:
                w = head[a]
                if cap[a] and via[w] == -1:
                    via[w] = a
                    queue.append(w)
            if via[sink] != -1:
                break
        else:  # the sink is out of reach: the queue holds the source side
            return queue
        w = sink
        while w != source:
            a = via[w]
            cap[a] -= 1
            cap[a ^ 1] += 1
            w = head[a ^ 1]
    return None


def _max_flow_vertex_cut(net, verts: list[int], i: int, j: int, limit: int) -> int | None:
    """Vertex cut of fewer than limit vertices separating the non-adjacent
    verts[i] and verts[j], as a mask of vertex indices, or None when limit
    vertex-disjoint paths join them.

    ``net`` is the split network of vertex_cut_below. The benchmark tracer
    (bench/tracer.py) counts max-flow calls by wrapping this name, so the
    name is kept and vertex_cut_below looks it up at call time.
    """
    reached = _augment(net, 2 * i + 1, 2 * j, limit)
    if reached is None:
        return None
    ins = outs = 0
    for node in reached:
        if node & 1:
            outs |= 1 << verts[node >> 1]
        else:
            ins |= 1 << verts[node >> 1]
    return ins & ~outs


def vertex_cut_below(adj: list[int], within: int, k: int) -> int | None:
    """A vertex cut of the induced subgraph with fewer than k vertices,
    or None when the subgraph is k-vertex-connected.

    Requires the induced subgraph connected with more than k vertices.
    A complete subgraph has no cut; a minimum-degree vertex of degree < k
    yields its neighborhood as a cut. Otherwise Menger on the split
    network, built once: vertex v becomes v_in -> v_out with capacity 1
    and each edge vw becomes v_out -> w_in and w_out -> v_in with capacity
    k, which no cut below k can use. Every non-adjacent pair (s, t), s < t,
    in ascending order gets a flow capped at k until one stays below k.
    """
    verts = list(bits(within))
    m = len(verts)
    min_v = min(verts, key=lambda v: (adj[v] & within).bit_count())
    min_d = (adj[min_v] & within).bit_count()
    if min_d >= m - 1:
        return None  # complete graph, connectivity m - 1 >= k given m > k
    if min_d < k:
        return adj[min_v] & within
    pos = {v: i for i, v in enumerate(verts)}
    arc_pairs = []
    for i, v in enumerate(verts):
        arc_pairs.append((2 * i, 2 * i + 1, 1, 0))
        for w in bits(adj[v] & within & ~((2 << v) - 1)):
            j = pos[w]
            arc_pairs.append((2 * i + 1, 2 * j, k, 0))
            arc_pairs.append((2 * j + 1, 2 * i, k, 0))
    net = _network(2 * m, arc_pairs)
    for i, s in enumerate(verts):
        for t in bits(within & ~adj[s] & ~((2 << s) - 1)):
            cut = _max_flow_vertex_cut(net, verts, i, pos[t], k)
            if cut is not None:
                return cut
    return None


def edge_cut_below(adj: list[int], within: int, k: int) -> int | None:
    """One side of an edge cut of the induced subgraph with fewer than k
    edges, or None when the subgraph is k-edge-connected (None also for
    fewer than 2 vertices). k must be a positive integer.

    Every cut separates the lowest vertex s from some t, so the edge
    connectivity is the least s-t flow: one unit arc pair per edge, and
    for each t in ascending order a flow capped at k. The side returned
    is the source side of the first flow that stays below k.
    """
    verts = list(bits(within))
    pos = {v: i for i, v in enumerate(verts)}
    net = _network(len(verts), [
        (i, pos[w], 1, 1)
        for i, v in enumerate(verts)
        for w in bits(adj[v] & within & ~((2 << v) - 1))
    ])
    for t in range(1, len(verts)):
        reached = _augment(net, 0, t, k)
        if reached is not None:
            return mask_of(verts[node] for node in reached)
    return None


def exists_clique(adj: list[int], cand: int, k) -> bool:
    """Whether the induced subgraph on cand contains a clique of size k."""
    if k <= 0:
        return True
    if not math.isfinite(k):
        return False
    # depth-first over (candidates, size still needed); the lowest candidate
    # is either in the clique (explored first) or dropped
    stack = [(cand, k)]
    while stack:
        cand, k = stack.pop()
        if k <= 0:
            return True
        if cand.bit_count() < k:
            continue
        low = cand & -cand
        v = low.bit_length() - 1
        stack.append((cand ^ low, k))
        stack.append((cand & adj[v], k - 1))
    return False


def closure_bk(adj: list[int], k, relaxed: bool) -> list[int]:
    """Least fixed point of the k-anchored edge rule.

    Strict rule (relaxed=False): join non-adjacent a, b whenever their
    common neighborhood contains a complete subgraph of size k (in the
    current graph). Relaxed rule: whenever they have at least k common
    neighbors. Both rules are monotone, so the saturation loop reaches the
    unique least fixed point regardless of application order.
    """
    out = list(adj)
    n = len(out)
    if not math.isfinite(k) or k > n - 2:
        return out
    k = int(k)
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(a + 1, n):
                if out[a] >> b & 1:
                    continue
                common = out[a] & out[b]
                if common.bit_count() < k:
                    continue
                if relaxed or exists_clique(out, common, k):
                    out[a] |= 1 << b
                    out[b] |= 1 << a
                    changed = True
    return out
