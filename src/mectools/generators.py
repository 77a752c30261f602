"""Seeded random connected chordal graph generators.

Four families with different structural character: intersection graphs of
random subtrees of a random tree, random interval graphs, graphs built
backward along a random elimination ordering, and random trees thickened by
chordality-preserving edges.  Base trees are drawn uniformly over labeled
trees via Prüfer sequences.  Identical seeds reproduce identical graphs.
"""

from __future__ import annotations

import heapq
import random
from bisect import insort
from typing import Sequence

from ._partition import refine_traversal
from .graphs import Uccg

_MAX_ATTEMPTS = 1000


class GenerationError(RuntimeError):
    """No connected graph was produced within the attempt budget."""


def _prufer_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labeled tree on ``n`` vertices."""
    if n < 2:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return edges


def _edges_connected(n: int, edges: Sequence[tuple[int, int]]) -> bool:
    if n <= 1:
        return True
    nbr: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbr[u].append(v)
        nbr[v].append(u)
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    reached = 1
    while stack:
        u = stack.pop()
        for v in nbr[u]:
            if not seen[v]:
                seen[v] = 1
                reached += 1
                stack.append(v)
    return reached == n


def _subtree_intersection_edges(
    n: int, k: int, rng: random.Random
) -> list[tuple[int, int]]:
    tree = _prufer_tree(n, rng)
    tree_adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in tree:
        tree_adj[u].append(v)
        tree_adj[v].append(u)
    holds: list[list[int]] = [[] for _ in range(n)]  # tree node -> subtree ids
    for i in range(n):
        target = rng.randint(1, 2 * k - 1)
        start = rng.randrange(n)
        nodes = {start}
        frontier = set(tree_adj[start])
        holds[start].append(i)
        while len(nodes) < target and frontier:
            v = rng.choice(sorted(frontier))
            frontier.discard(v)
            nodes.add(v)
            holds[v].append(i)
            for w in tree_adj[v]:
                if w not in nodes:
                    frontier.add(w)
    edges = set()
    for ids in holds:
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                edges.add((ids[a], ids[b]))
    return sorted(edges)


def gen_subtree(n: int, k: int, seed: int) -> Uccg:
    """Intersection graph of ``n`` random subtrees of a random ``n``-node tree.

    Subtree sizes are drawn uniformly from {1, ..., 2k-1}; grown by repeatedly
    absorbing a random neighbor.  Redraws until the intersection graph is
    connected (tiny ``k`` on larger ``n`` rarely connects).
    """
    rng = random.Random(seed)
    for _ in range(_MAX_ATTEMPTS):
        edges = _subtree_intersection_edges(n, k, rng)
        if _edges_connected(n, edges):
            return Uccg.from_edges(range(n), edges)
    raise GenerationError(f"no connected subtree-intersection graph (n={n}, k={k})")


def gen_interval(n: int, seed: int) -> Uccg:
    """Intersection graph of ``n`` random intervals.

    Draws 2n uniform variates in [0,1] and pairs consecutive draws as interval
    endpoints; expected density approaches 2/3.  Redraws until connected.
    """
    rng = random.Random(seed)
    for _ in range(_MAX_ATTEMPTS):
        intervals = []
        for _ in range(n):
            a = rng.random()
            b = rng.random()
            intervals.append((a, b) if a <= b else (b, a))
        order = sorted(range(n), key=intervals.__getitem__)
        edges = []
        for i in range(n):
            vi = order[i]
            hi = intervals[vi][1]
            for j in range(i + 1, n):
                vj = order[j]
                if intervals[vj][0] > hi:
                    break
                edges.append((vi, vj) if vi < vj else (vj, vi))
        if _edges_connected(n, edges):
            return Uccg.from_edges(range(n), edges)
    raise GenerationError(f"no connected interval graph (n={n})")


def gen_peo(n: int, k: int, seed: int) -> Uccg:
    """Chordal graph built backward along an elimination ordering.

    For each vertex in order, its current later neighbors are padded with
    random later vertices up to a size drawn from {max(1, k//2), ..., 2k} and
    completed into a clique.  Every non-final vertex keeps at least one later
    neighbor, so the result is connected by construction.
    """
    rng = random.Random(seed)
    lo = max(1, k // 2)
    hi = max(lo, 2 * k)
    later: list[set[int]] = [set() for _ in range(n)]
    edges: set[tuple[int, int]] = set()

    def add_edge(a: int, b: int) -> None:
        edges.add((a, b) if a < b else (b, a))
        if a < b:
            later[a].add(b)
        else:
            later[b].add(a)

    for i in range(n - 1):
        size = min(rng.randint(lo, hi), n - 1 - i)
        bag = set(later[i])
        while len(bag) < size:
            bag.add(rng.randrange(i + 1, n))
        bag_list = sorted(bag)
        for j, a in enumerate(bag_list):
            add_edge(i, a)
            for b in bag_list[j + 1 :]:
                add_edge(a, b)
    return Uccg.from_edges(range(n), sorted(edges))


def _is_chordal_edges(n: int, adj: list[list[int]]) -> bool:
    order, _ = refine_traversal(adj, [(1 << n) - 1])
    order.reverse()
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    required: list[list[int]] = [[] for _ in range(n)]
    for v in order:
        if required[v]:
            nbr = set(adj[v])
            for w in required[v]:
                if w not in nbr:
                    return False
        lat = [w for w in adj[v] if pos[w] > pos[v]]
        if not lat:
            continue
        m = min(lat, key=pos.__getitem__)
        req = required[m]
        for w in lat:
            if w != m:
                req.append(w)
    return True


def gen_thicken(n: int, k: int, seed: int) -> Uccg:
    """Random tree plus random chordality-preserving edges, up to k*n edges.

    Far slower than the other generators: each candidate edge re-runs a full
    linear-time chordality check.  Stops early only when no addable pair is
    left (i.e. at the complete graph).
    """
    rng = random.Random(seed)
    adj: list[list[int]] = [[] for _ in range(n)]
    m = 0
    for u, v in _prufer_tree(n, rng):
        insort(adj[u], v)
        insort(adj[v], u)
        m += 1
    target = min(k * n, n * (n - 1) // 2)

    def try_add(u: int, v: int) -> bool:
        nonlocal m
        insort(adj[u], v)
        insort(adj[v], u)
        if _is_chordal_edges(n, adj):
            m += 1
            return True
        adj[u].remove(v)
        adj[v].remove(u)
        return False

    misses = 0
    while m < target:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and v not in adj[u] and try_add(u, v):
            misses = 0
            continue
        misses += 1
        if misses < 64:
            continue
        # random probing is stalling: sweep every non-adjacent pair once
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if v not in adj[u]
        ]
        rng.shuffle(pairs)
        added = False
        for u, v in pairs:
            if try_add(u, v):
                added = True
                break
        if not added:
            break
        misses = 0
    return Uccg(range(n), adj)
