"""Lexicographic BFS, elimination orderings, clique trees, minimal separators."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ._partition import refine_traversal

if TYPE_CHECKING:
    from .graphs import Uccg


@dataclass(frozen=True)
class LbfsOrdering:
    """A lexicographic BFS visit order; its reverse is a perfect elimination
    ordering whenever the traversed graph is chordal."""

    order: tuple[int, ...]

    def reversed(self) -> tuple[int, ...]:
        return tuple(reversed(self.order))


def lbfs(
    g: "Uccg", seed: int | None = None, rng: random.Random | None = None
) -> LbfsOrdering:
    """Lexicographic BFS over ``g`` in O(|V|+|E|).

    Ties are broken toward the lowest local index by default; pass ``seed``
    (or an existing ``rng``) for randomized tie-breaking.
    """
    if rng is None and seed is not None:
        rng = random.Random(seed)
    order, _ = refine_traversal(g.adj, [(1 << g.n) - 1], rng=rng, masks=g.adj_masks)
    return LbfsOrdering(tuple(order))


def is_peo(g: "Uccg", rho: Sequence[int]) -> bool:
    """True iff for every vertex its later neighbors in ``rho`` are a clique."""
    n = g.n
    if sorted(rho) != list(range(n)):
        raise ValueError("rho is not a permutation of the vertices")
    pos = [0] * n
    for i, v in enumerate(rho):
        pos[v] = i
    required: list[list[int]] = [[] for _ in range(n)]
    for v in rho:
        if required[v]:
            nbr = set(g.adj[v])
            for w in required[v]:
                if w not in nbr:
                    return False
        later = [w for w in g.adj[v] if pos[w] > pos[v]]
        if not later:
            continue
        m = min(later, key=pos.__getitem__)
        req = required[m]
        for w in later:
            if w != m:
                req.append(w)
    return True


def is_chordal(g: "Uccg") -> bool:
    return is_peo(g, lbfs(g).reversed())


@dataclass(frozen=True)
class CliqueTree:
    """Rooted clique tree of a chordal graph.

    ``cliques`` holds the maximal cliques as sorted tuples of local vertices;
    ``parent[i] == i`` exactly at the root; ``separators[i]`` is the
    intersection of clique ``i`` with its parent clique (``None`` at the
    root).  ``labels`` are the global labels of the underlying graph.
    """

    labels: tuple[int, ...]
    cliques: tuple[tuple[int, ...], ...]
    parent: tuple[int, ...]
    root: int
    separators: tuple[tuple[int, ...] | None, ...]

    def __len__(self) -> int:
        return len(self.cliques)

    def children(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.cliques]
        for x, p in enumerate(self.parent):
            if x != self.root:
                out[p].append(x)
        return out

    def bfs_order(self) -> list[int]:
        order = [self.root]
        kids = self.children()
        i = 0
        while i < len(order):
            order.extend(kids[order[i]])
            i += 1
        return order

    def clique_labels(self, i: int) -> tuple[int, ...]:
        return tuple(self.labels[v] for v in self.cliques[i])


def clique_tree(
    g: "Uccg", seed: int | None = None, rng: random.Random | None = None
) -> CliqueTree:
    """Build a rooted clique tree from a single LBFS sweep.

    Maximal cliques are collected as runs of the sweep: a visited vertex whose
    earlier-neighbor set no longer contains the running clique closes it and
    starts a new one, which is attached to the clique of its most recently
    visited earlier neighbor.  The default root is the clique containing the
    lowest label; with ``seed``/``rng`` both the LBFS ties and the root are
    randomized.  Clique trees are not unique, but every quantity derived from
    them downstream is tree-invariant.

    A complete graph gets its one-clique tree without building adjacency;
    ``rng`` is advanced as the sweep would advance it (see
    :func:`_skip_sweep_of_complete`).
    """
    if rng is None and seed is not None:
        rng = random.Random(seed)
    n = g.n
    if n == 0:
        raise ValueError("empty graph has no clique tree")
    if g._is_complete():
        if rng is not None:
            _skip_sweep_of_complete(rng, n)
        return CliqueTree(g.labels, (tuple(range(n)),), (0,), 0, (None,))
    return _clique_tree_of_sweep(g, lbfs(g, rng=rng).order, rng)


def _skip_sweep_of_complete(rng: random.Random, n: int) -> None:
    """Draw from ``rng`` exactly what a randomized sweep of K_n and the root
    choice among its single clique draw.

    The LBFS front block of K_n always holds every unvisited vertex, so the
    sweep's picks are ``choice`` calls on ``n``, ``n - 1``, ..., 1 vertices;
    ``choice`` consumes randomness by sequence length only.
    """
    for left in range(n, 0, -1):
        rng.choice(range(left))
    rng.randrange(1)


def _clique_tree_of_sweep(
    g: "Uccg", order: Sequence[int], rng: random.Random | None
) -> CliqueTree:
    """Clique tree from the LBFS visit ``order`` of ``g``; ``rng`` picks the
    root (default: the clique containing local vertex 0)."""
    n = g.n
    adj = g.adj
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i

    cliques: list[list[int]] = [[order[0]]]
    attach: list[int] = [-1]
    run_of = [0] * n
    in_run = bytearray(n)
    in_run[order[0]] = 1
    run_members = cliques[0]

    for i in range(1, n):
        v = order[i]
        earlier = [w for w in adj[v] if pos[w] < i]
        assert earlier, "a connected graph cannot start a component mid-sweep"
        hits = 0
        for w in earlier:
            if in_run[w]:
                hits += 1
        if hits == len(run_members):
            # current run extends: the clique becomes earlier-neighbors plus v
            for w in earlier:
                if not in_run[w]:
                    in_run[w] = 1
            in_run[v] = 1
            run_members = earlier + [v]
            cliques[-1] = run_members
        else:
            for w in run_members:
                in_run[w] = 0
            u_last = max(earlier, key=pos.__getitem__)
            run_members = earlier + [v]
            for w in run_members:
                in_run[w] = 1
            cliques.append(run_members)
            attach.append(run_of[u_last])
        run_of[v] = len(cliques) - 1

    clique_tuples = tuple(tuple(sorted(c)) for c in cliques)
    k = len(clique_tuples)

    if rng is not None:
        root = rng.randrange(k)
    else:
        root = next(i for i, c in enumerate(clique_tuples) if c[0] == 0)

    tree_adj: list[list[int]] = [[] for _ in range(k)]
    for s in range(1, k):
        tree_adj[s].append(attach[s])
        tree_adj[attach[s]].append(s)

    parent = [-1] * k
    parent[root] = root
    bfs = [root]
    i = 0
    while i < len(bfs):
        x = bfs[i]
        i += 1
        for y in tree_adj[x]:
            if parent[y] == -1:
                parent[y] = x
                bfs.append(y)

    separators: list[tuple[int, ...] | None] = [None] * k
    for x in range(k):
        if x == root:
            continue
        px = set(clique_tuples[parent[x]])
        separators[x] = tuple(v for v in clique_tuples[x] if v in px)

    return CliqueTree(g.labels, clique_tuples, tuple(parent), root, tuple(separators))


def minimal_separators(t: CliqueTree) -> list[tuple[int, ...]]:
    """The per-edge clique intersections of the tree, as global label tuples.

    Returned as a multiset (one entry per tree edge); the deduplicated set is
    exactly the set of minimal separators of the underlying graph.
    """
    out = []
    for x in range(len(t.cliques)):
        sep = t.separators[x]
        if sep is not None:
            out.append(tuple(t.labels[v] for v in sep))
    return out
