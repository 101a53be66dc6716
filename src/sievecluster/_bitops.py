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

import numpy as np


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


def adjacency_from_bool(matrix: np.ndarray) -> list[int]:
    """Rows of a boolean matrix as bitmasks (diagonal cleared)."""
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
    """Vertices by repeated removal of a minimum-degree vertex."""
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


def _bk_pivot(adj: list[int], clique: int, P: int, X: int, out: list[int]) -> None:
    if P == 0:
        if X == 0:
            out.append(clique)
        return
    px = P | X
    best = -1
    piv_adj = 0
    m = px
    while m:
        u = (m & -m).bit_length() - 1
        m &= m - 1
        c = (adj[u] & P).bit_count()
        if c > best:
            best = c
            piv_adj = adj[u]
    cand = P & ~piv_adj
    while cand:
        low = cand & -cand
        v = low.bit_length() - 1
        cand ^= low
        _bk_pivot(adj, clique | low, P & adj[v], X & adj[v], out)
        P ^= low
        X |= low


def maximal_cliques(adj: list[int], within: int | None = None) -> list[int]:
    """All maximal cliques of the induced subgraph (singletons included).

    Bron-Kerbosch with pivoting, seeded by a degeneracy order, run per
    connected component; components that are already complete are emitted
    directly, which makes equivalence-relation inputs (unions of complete
    blocks) linear.
    """
    if within is None:
        within = full_mask(len(adj))
    out: list[int] = []
    for comp in components(adj, within):
        if is_complete(adj, comp):
            out.append(comp)
            continue
        order = degeneracy_order(adj, comp)
        P = comp
        X = 0
        for v in order:
            b = 1 << v
            _bk_pivot(adj, b, P & adj[v], X & adj[v], out)
            P ^= b
            X |= b
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


def _max_flow_vertex_cut(
    adj: list[int], verts: list[int], s: int, t: int, limit: int
) -> int | None:
    """Vertex cut separating non-adjacent s and t if its size is < limit.

    Menger via unit-capacity max-flow on the split digraph (v_in -> v_out
    cap 1, each edge both directions with large cap). Returns the cut as a
    mask of original vertex indices, or None when flow reaches the limit.
    """
    pos = {v: i for i, v in enumerate(verts)}
    m = len(verts)
    big = m + limit + 1
    # arcs: list of [to, cap]; arc i and i^1 are a residual pair
    graph: list[list[int]] = [[] for _ in range(2 * m)]
    arcs: list[list[int]] = []

    def add_arc(u: int, v: int, cap: int) -> None:
        graph[u].append(len(arcs))
        arcs.append([v, cap])
        graph[v].append(len(arcs))
        arcs.append([u, 0])

    within = mask_of(verts)
    for v in verts:
        i = pos[v]
        add_arc(2 * i, 2 * i + 1, 1)
        nb = adj[v] & within
        for w in bits(nb):
            if w > v:
                j = pos[w]
                add_arc(2 * i + 1, 2 * j, big)
                add_arc(2 * j + 1, 2 * i, big)
    source = 2 * pos[s] + 1
    sink = 2 * pos[t]
    flow = 0
    while flow < limit:
        prev_arc = [-1] * (2 * m)
        seen = [False] * (2 * m)
        seen[source] = True
        queue = [source]
        while queue:
            nxt = []
            for u in queue:
                for ai in graph[u]:
                    to, cap = arcs[ai]
                    if cap > 0 and not seen[to]:
                        seen[to] = True
                        prev_arc[to] = ai
                        nxt.append(to)
            if seen[sink]:
                break
            queue = nxt
        if not seen[sink]:
            cut = 0
            for v in verts:
                i = pos[v]
                if seen[2 * i] and not seen[2 * i + 1]:
                    cut |= 1 << v
            return cut
        node = sink
        while node != source:
            ai = prev_arc[node]
            arcs[ai][1] -= 1
            arcs[ai ^ 1][1] += 1
            node = arcs[ai ^ 1][0]
        flow += 1
    return None


def vertex_cut_below(adj: list[int], within: int, k: int) -> int | None:
    """A vertex cut of the induced subgraph with fewer than k vertices,
    or None when the subgraph is k-vertex-connected.

    Requires the induced subgraph connected with more than k vertices.
    A minimum-degree vertex of degree < k yields its neighborhood as a
    cut immediately; otherwise every non-adjacent pair is tested with a
    flow capped at k.
    """
    verts = list(bits(within))
    m = len(verts)
    min_v = -1
    min_d = None
    for v in verts:
        d = (adj[v] & within).bit_count()
        if min_d is None or d < min_d:
            min_d = d
            min_v = v
    if min_d is not None and min_d >= m - 1:
        return None  # complete graph, connectivity m - 1 >= k given m > k
    if min_d is not None and min_d < k:
        return adj[min_v] & within
    for s in verts:
        non_nb = within & ~adj[s] & ~(1 << s)
        for t in bits(non_nb):
            if t <= s:
                continue
            cut = _max_flow_vertex_cut(adj, verts, s, t, k)
            if cut is not None:
                return cut
    return None


def edge_cut_below(adj: list[int], within: int, k: int) -> int | None:
    """One side of a global edge cut of weight < k, or None if the induced
    subgraph is k-edge-connected. Requires the subgraph connected, >= 2
    vertices, bridgeless (callers split on bridges first), and k finite.

    Stoer-Wagner with unit weights; each phase's cut-of-the-phase is a
    valid cut, so the search stops at the first one under k.
    """
    verts = list(bits(within))
    m = len(verts)
    if m < 2:
        return None
    w = np.zeros((m, m))
    pos = {v: i for i, v in enumerate(verts)}
    for v in verts:
        for u in bits(adj[v] & within):
            if u > v:
                w[pos[v], pos[u]] = w[pos[u], pos[v]] = 1.0
    groups = [1 << v for v in verts]
    active = list(range(m))
    best_weight = math.inf
    best_side = 0
    while len(active) > 1:
        a0 = active[0]
        in_a = {a0}
        keys = {v: w[a0, v] for v in active[1:]}
        order = [a0]
        while len(order) < len(active):
            pick = max(keys, key=lambda v: (keys[v], -v))
            order.append(pick)
            del keys[pick]
            in_a.add(pick)
            for v in keys:
                keys[v] += w[pick, v]
        t = order[-1]
        s = order[-2]
        weight = float(sum(w[t, v] for v in active if v != t))
        if weight < best_weight:
            best_weight = weight
            best_side = groups[t]
            if best_weight < k:
                return best_side
        # merge t into s
        for v in active:
            if v != t and v != s:
                w[s, v] += w[t, v]
                w[v, s] = w[s, v]
        groups[s] |= groups[t]
        active.remove(t)
    return None if best_weight >= k else best_side


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
