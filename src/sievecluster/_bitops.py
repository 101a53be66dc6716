"""Graph kernels on int-bitmask adjacency.

A graph on n vertices (n is len(adj)) is a list of Python ints: bit j of
adj[i] is set iff i and j are adjacent. No self-bits. Arbitrary-width ints
make subset algebra (intersection, complement within a mask, popcount) a
single machine-level operation per word, which keeps the exhaustive
verification workloads and the 2000-point threshold graphs fast without any
compiled code. Every kernel works on these ints alone; none reads an array.

Every routine takes an optional ``within`` mask restricting attention to an
induced subgraph, and all tie-breaking is by lowest vertex index, so results
are deterministic.

The vertex and edge cut searches share one loop, _grow_linked: it grows a
set proven linked to a seed, lets a vertex with k neighbours in the set
join it for free, and runs a capped flow (_augment) only when none has.
The two searches differ in the seed and the network the flow runs on.
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


def k_core(adj: list[int], within: int, k: int) -> tuple[int, list[tuple[int, int]]]:
    """The k-core of the induced subgraph, and the vertices peeled off to
    reach it, each with the neighbours it still had when it was dropped.

    A vertex with fewer than k neighbours left is dropped, and each of its
    neighbours is looked at again, until none is left to drop (Batagelj &
    Zaversnik 2003, *An O(m) algorithm for cores decomposition of
    networks*). A dropped vertex lies in no set of minimum degree k or
    more, and had fewer than k neighbours left.
    """
    core = within
    peeled = []
    low = [v for v in bits(within) if (adj[v] & within).bit_count() < k]
    queued = mask_of(low)
    while low:
        v = low.pop()
        around = adj[v] & core
        core ^= 1 << v
        peeled.append((v, around))
        for w in bits(around & ~queued):
            if (adj[w] & core).bit_count() < k:
                queued |= 1 << w
                low.append(w)
    return core, peeled


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

    Run per connected component through cliques_containing, which emits
    a complete component, a singleton among them, as it is.
    """
    if within is None:
        within = full_mask(len(adj))
    out: list[int] = []
    for comp in components(adj, within):
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


def _grow_linked(adj: list[int], within: int, k: int, seed: int, flow) -> int | None:
    """Grow a set T from seed until it holds all of within, and return
    None; or return the first cut that flow gives.

    A vertex outside T with k neighbours in T joins T with no flow. When
    none has k, the vertex t with the most neighbours in T (the lowest on
    ties) gets flow(t): it joins T on None, and any other value is the
    cut returned. So every flow adds a vertex, and the vertices join in a
    maximum adjacency order, which needs few flows (Nagamochi & Ibaraki
    1992, *Computing edge-connectivity in multigraphs and capacitated
    graphs*, SIAM J. Discrete Math. 5).

    The callers choose seed and flow so that no cut below k separates a
    member of T from the seed, which makes a free join safe (see
    vertex_cut_below and edge_cut_below). A vertex enters T once, the
    seed's vertices included, so a count is of distinct members of T.
    """
    inside = seed
    edges_in = dict.fromkeys(bits(within), 0)
    joining = list(bits(seed))
    while True:
        while joining:
            for w in bits(adj[joining.pop()] & within & ~inside):
                edges_in[w] += 1
                if edges_in[w] == k:
                    inside |= 1 << w
                    joining.append(w)
        rest = within & ~inside
        if not rest:
            return None
        t = max(bits(rest), key=edges_in.__getitem__)
        cut = flow(t)
        if cut is not None:
            return cut
        inside |= 1 << t
        joining.append(t)


def vertex_cut_below(adj: list[int], within: int, k: int) -> int | None:
    """A vertex cut of the induced subgraph with fewer than k vertices,
    or None when the subgraph is k-vertex-connected.

    Requires the induced subgraph connected with more than k vertices.
    Take v, a minimum-degree vertex (the lowest of them). A cut below k
    contains a minimal one, C; if v is not in C, C separates v from a
    vertex not adjacent to it, and if v is in C, v has a neighbour in two
    of the components C leaves, and C separates those two (Esfahanian &
    Hakimi 1984, *On computing the connectivities of graphs and
    digraphs*, Networks 14). So two phases decide, each pair by a flow
    capped at k, until one stays below k:

    - v against its non-neighbours, through _grow_linked seeded with v
      and its neighbours. Every other member of T is linked to v by k
      internally disjoint paths, and so is a vertex w outside T with k
      neighbours in T: a cut C below k that separates v from w misses one
      of them, s, which is not v, and C cannot separate s from v, as s is
      v's neighbour or linked to v; yet s is adjacent to w. A
      non-neighbour with k common neighbours with v thus needs no flow.
    - each non-adjacent pair of v's neighbours, skipping a pair with k
      common neighbours: those are k internally disjoint paths, so no
      cut below k separates it.

    Each flow runs on the split network, built on the first flow, as
    most small candidates need none: vertex u becomes u_in -> u_out with
    capacity 1, and each edge uw becomes u_out -> w_in and w_out -> u_in
    with capacity k, which no cut below k can use. A complete subgraph
    thus takes no flow and builds no network. The maximal k-connected
    vertex sets are unique, so which cut is found first does not change
    them. A vertex of degree below k needs no case of its own, as its
    first flow stays below k; callers peel such vertices first (k_core).
    """
    verts = list(bits(within))
    pos = {u: i for i, u in enumerate(verts)}
    v = min(verts, key=lambda u: (adj[u] & within).bit_count())
    around = adj[v] & within
    net = None

    def flow(s: int, t: int) -> int | None:
        nonlocal net
        if net is None:
            arc_pairs = []
            for i, u in enumerate(verts):
                arc_pairs.append((2 * i, 2 * i + 1, 1, 0))
                for w in bits(adj[u] & within & ~((2 << u) - 1)):
                    j = pos[w]
                    arc_pairs += [(2 * i + 1, 2 * j, k, 0), (2 * j + 1, 2 * i, k, 0)]
            net = _network(2 * len(verts), arc_pairs)
        return _max_flow_vertex_cut(net, verts, pos[s], pos[t], k)

    cut = _grow_linked(adj, within, k, around | 1 << v, lambda t: flow(v, t))
    if cut is not None:
        return cut
    for s in bits(around):
        for t in bits(around & ~adj[s] & ~((2 << s) - 1)):
            if (adj[s] & adj[t] & within).bit_count() < k:
                cut = flow(s, t)
                if cut is not None:
                    return cut
    return None


def edge_cut_below(adj: list[int], within: int, k: int) -> int | None:
    """One side of an edge cut of the induced subgraph with fewer than k
    edges, or None when the subgraph is k-edge-connected (None also for
    fewer than 2 vertices). k must be a positive integer.

    _grow_linked grows S from the lowest vertex s0, and gives t a flow
    capped at k from s0 alone, on the plain network. Being joined by k
    edge-disjoint paths is an equivalence relation, so every cut below k
    leaves all of S on s0's side: a vertex with k edges into S is on that
    side too, and joins S with no flow, and t has k paths to S exactly
    when it has k paths to s0. When it has fewer, the vertices that s0
    still reaches in the residual network are a side of such a cut, and
    hold all of S. There are at most m - 1 flows on m vertices. The
    maximal k-edge-connected vertex sets are unique, so which cut is
    found does not change them. A vertex of degree below k needs no case
    of its own: it joins S only through a flow, and a flow into it, or
    out of s0 when it is s0, stays below k. Callers peel such vertices
    first (k_core).
    """
    verts = list(bits(within))
    pos = {v: i for i, v in enumerate(verts)}
    arc_pairs = [
        (i, pos[w], 1, 1) for i, v in enumerate(verts) for w in bits(adj[v] & within & ~((2 << v) - 1))
    ]
    net = _network(len(verts), arc_pairs)

    def flow(t: int) -> int | None:
        reached = _augment(net, 0, pos[t], k)
        return None if reached is None else mask_of(verts[node] for node in reached)

    return _grow_linked(adj, within, k, within & -within, flow)


def _clique_joined(adj: list[int], around: int, rest: int, k: int) -> int:
    """The vertices of rest adjacent to every vertex of some k-clique in
    around: the union, over the k-cliques K of around, of rest and the
    neighbourhoods of K's vertices.

    Depth first on an explicit stack over (candidates, common, size still
    needed): the lowest candidate is either in the clique (explored first)
    or dropped. A branch whose common part holds nothing found yet, or
    whose candidates are too few, is cut.
    """
    found = 0
    stack = [(around, rest, k)]
    while stack:
        cand, common, need = stack.pop()
        if not common & ~found:
            continue
        if need <= 0:
            found |= common
            if found == rest:
                break
            continue
        if cand.bit_count() < need:
            continue
        low = cand & -cand
        nv = adj[low.bit_length() - 1]
        stack.append((cand ^ low, common, need))
        stack.append((cand & nv, common & nv, need - 1))
    return found


def closure_bk(adj: list[int], k, relaxed: bool) -> list[int]:
    """Least fixed point of the k-anchored edge rule.

    Strict rule (relaxed=False): join non-adjacent a, b whenever their
    common neighborhood contains a complete subgraph of size k (in the
    current graph). Relaxed rule: whenever they have at least k common
    neighbors. Both rules are monotone, so any order of application that
    adds only edges the rule allows, until it allows none, reaches the
    unique least fixed point.

    Each vertex a in turn takes all of its new partners in one step,
    computed on the current graph, and passes repeat until one adds
    nothing; after the first, a pass visits only the vertices next to an
    edge added since their last step. A pass thus visits each vertex once
    instead of each pair. The candidates are a's non-neighbours with at
    least k common neighbours, read off bit-sliced counters over a's
    neighbours v ("adjacent to at least j of them", j up to k: one update
    of k masks per v), which stop once every non-neighbour qualifies.
    Relaxed, they are the new partners; strict, the new partners are
    those adjacent to all of some k-clique of a's neighbourhood
    (_clique_joined).
    """
    out = list(adj)
    n = len(out)
    if not math.isfinite(k) or k > n - 2:
        return out
    k = int(k)
    everyone = full_mask(n)
    slices = range(k, 0, -1)
    # a vertex's new partners depend on its own row and its neighbours'
    # rows, and a new edge ab changes the rows of a and b: only a, b and
    # their neighbours need another step
    stale = everyone
    while stale:
        touched = 0
        for a in bits(stale):
            around = out[a]
            rest = everyone & ~around & ~(1 << a)
            if not rest or around.bit_count() < k:
                continue
            # at_least[j]: the vertices of rest adjacent to at least j of
            # the neighbours of a counted so far
            at_least = [rest] + [0] * k
            m = around
            while m:
                low = m & -m
                m ^= low
                nv = out[low.bit_length() - 1]
                for j in slices:
                    at_least[j] |= at_least[j - 1] & nv
                if at_least[k] == rest:
                    break
            new = at_least[k]
            if new and not relaxed:
                new = _clique_joined(out, around, new, k)
            if new:
                out[a] = around | new
                bit = 1 << a
                m = new
                while m:
                    low = m & -m
                    m ^= low
                    out[low.bit_length() - 1] |= bit
                touched |= new | 1 << a
        stale = touched
        for v in bits(touched):
            stale |= out[v]
    return out
