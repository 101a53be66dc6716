"""Output checks that use numpy and the standard library only.

Each check takes the parsed JSON a command printed and returns a list of
problems (empty when the output is right). The distances come from the
benchmark's own copy of the inputs, never from the program.
"""

from __future__ import annotations

import numpy as np


def _blocks(names: list[str], clusters) -> list[np.ndarray]:
    index = {name: i for i, name in enumerate(names)}
    return [np.array(sorted(index[x] for x in blk), dtype=np.int64) for blk in clusters]


def _base_problems(names: list[str], doc: dict) -> list[str]:
    if doc.get("base") != names:
        return ["cover base differs from the input labels"]
    if not doc["clusters"] or set().union(*doc["clusters"]) != set(names):
        return ["blocks do not cover the base"]
    return []


def check_cover(names: list[str], doc: dict, partition: bool = False) -> list[str]:
    """Base is the input's labels; blocks cover it, none inside another."""
    problems = _base_problems(names, doc)
    if problems:
        return problems
    blocks = [frozenset(b) for b in doc["clusters"]]
    if partition:
        if sum(len(b) for b in blocks) != len(names):
            return ["blocks overlap where a partition was expected"]
        return []
    for a in blocks:
        for b in blocks:
            if a < b:
                return [f"block of {len(a)} points sits inside another"]
    return []


def _find(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _partition(parent: list[int], names: list[str]) -> set[frozenset[str]]:
    groups: dict[int, set[str]] = {}
    for v, name in enumerate(names):
        groups.setdefault(_find(parent, v), set()).add(name)
    return {frozenset(g) for g in groups.values()}


def single_linkage_partition(names: list[str], dist: np.ndarray, delta: float):
    """Components of the threshold graph by union-find."""
    parent = list(range(len(names)))
    for i, j in zip(*np.nonzero(np.triu(dist <= delta, k=1))):
        ri, rj = _find(parent, int(i)), _find(parent, int(j))
        if ri != rj:
            parent[ri] = rj
    return _partition(parent, names)


def check_sl_cover(names: list[str], dist: np.ndarray, delta: float, doc: dict) -> list[str]:
    problems = check_cover(names, doc, partition=True)
    if problems:
        return problems
    got = {frozenset(b) for b in doc["clusters"]}
    if got != single_linkage_partition(names, dist, delta):
        return [f"single-linkage partition differs from union-find at delta={delta!r}"]
    return []


def _ml_problems(names: list[str], dist: np.ndarray, delta: float, clusters) -> list[str]:
    """Every block is a clique of the threshold graph that no outside point
    extends, and every close pair shares a block."""
    close = dist <= delta
    covered = np.eye(len(names), dtype=bool)
    for b in _blocks(names, clusters):
        if not close[np.ix_(b, b)].all():
            return [f"block {names[b[0]]}.. has a pair farther than delta={delta!r}"]
        extends = np.flatnonzero(close[:, b].all(axis=1))
        if len(extends) != len(b):
            return [f"block {names[b[0]]}.. is not maximal at delta={delta!r}"]
        covered[np.ix_(b, b)] = True
    if not np.array_equal(covered, close):
        return [f"a close pair shares no block at delta={delta!r}"]
    return []


def check_ml_cover(names: list[str], dist: np.ndarray, delta: float, doc: dict) -> list[str]:
    return _base_problems(names, doc) or _ml_problems(names, dist, delta, doc["clusters"])


def _distinct_scales(dist: np.ndarray) -> list[float]:
    values = np.unique(dist[np.triu_indices(len(dist), k=1)]).tolist()
    return values if values and values[0] == 0.0 else [0.0] + values


def check_sieve_shape(names: list[str], doc: dict) -> list[str]:
    """Starts at 0, strictly increasing, ends in the one-block cover."""
    bps = doc.get("breakpoints", [])
    if doc.get("base") != names or not bps or bps[0] != 0.0:
        return ["sieve base or first breakpoint is wrong"]
    if any(not a < b for a, b in zip(bps, bps[1:])) or len(bps) != len(doc["covers"]):
        return ["sieve breakpoints are not strictly increasing or misaligned"]
    if doc["covers"][-1] != [names]:
        return ["sieve does not end in the one-block cover"]
    return []


def check_sl_sieve(names: list[str], dist: np.ndarray, doc: dict) -> list[str]:
    """The profile is Kruskal's merge sequence: a breakpoint at 0 and at
    each distance where two components join, with their partitions."""
    problems = check_sieve_shape(names, doc)
    if problems:
        return problems
    parent = list(range(len(names)))
    want_bps = [0.0]
    want = [_partition(parent, names)]
    iu, ju = np.triu_indices(len(names), k=1)
    order = np.argsort(dist[iu, ju], kind="stable")
    weights = dist[iu, ju][order].tolist()
    pairs = list(zip(iu[order].tolist(), ju[order].tolist()))
    k = 0
    while k < len(pairs):
        w = weights[k]
        merged = False
        while k < len(pairs) and weights[k] == w:
            ri, rj = _find(parent, pairs[k][0]), _find(parent, pairs[k][1])
            if ri != rj:
                parent[ri] = rj
                merged = True
            k += 1
        if merged and w > 0.0:
            want_bps.append(w)
            want.append(_partition(parent, names))
        elif merged:
            want[0] = _partition(parent, names)
    if doc["breakpoints"] != want_bps:
        return ["single-linkage sieve breakpoints differ from Kruskal merge heights"]
    got = [{frozenset(b) for b in cover} for cover in doc["covers"]]
    if got != want:
        return ["single-linkage sieve partitions differ from Kruskal"]
    return []


def check_ml_sieve(names: list[str], dist: np.ndarray, doc: dict) -> list[str]:
    """Every new close pair changes the maximal cliques, so the profile has
    a breakpoint at 0 and at every distinct distance, and each cover is
    the maximal cliques of the threshold graph at its breakpoint."""
    problems = check_sieve_shape(names, doc)
    if problems:
        return problems
    if doc["breakpoints"] != _distinct_scales(dist):
        return ["maximal-linkage sieve is missing or adds breakpoints"]
    for bp, cover in zip(doc["breakpoints"], doc["covers"]):
        problems = _ml_problems(names, dist, bp, cover)
        if problems:
            return problems
    return []


def check_report(doc: dict, check: str, found: bool | None = None) -> list[str]:
    """A verification report of the given kind; functoriality and sandwich
    must hold, a counterexample search must find a witness exactly when
    ``found`` says so."""
    if doc.get("check") != check:
        return [f"report is {doc.get('check')!r}, expected {check!r}"]
    if found is None:
        return [f"{len(doc['violations'])} violation(s)"] if doc["violations"] else []
    if doc.get("extra", {}).get("found") is not found or len(doc["violations"]) != int(found):
        return [f"counterexample search: expected found={found}"]
    return []
