"""Lexicographic BFS, elimination orderings and clique trees."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ._partition import mask_bits, refine_traversal

if TYPE_CHECKING:
    from .graphs import Uccg


def lbfs(g: "Uccg", rng: random.Random | None = None) -> tuple[int, ...]:
    """Lexicographic BFS visit order of ``g``, in O(|V|+|E|).

    Its reverse is a perfect elimination ordering whenever ``g`` is chordal.
    Ties are broken toward the lowest local index by default; pass ``rng``
    for randomized tie-breaking.
    """
    order, _ = refine_traversal(g.adj, [(1 << g.n) - 1], rng=rng, masks=g.adj_masks)
    return tuple(order)


def is_peo(g: "Uccg", rho: Sequence[int]) -> bool:
    """True iff for every vertex its later neighbors in ``rho`` are a clique.

    The test of Rose, Tarjan & Lueker: it suffices that the later neighbors
    of each vertex, except the earliest one ``m``, are neighbors of ``m``.
    """
    n = g.n
    if sorted(rho) != list(range(n)):
        raise ValueError("rho is not a permutation of the vertices")
    masks = g.adj_masks
    pos = [0] * n
    for i, v in enumerate(rho):
        pos[v] = i
    later = (1 << n) - 1
    for v in rho:
        later ^= 1 << v
        nbrs = masks[v] & later
        if nbrs:
            m = rho[min(map(pos.__getitem__, mask_bits(nbrs)))]
            if nbrs & ~masks[m] & ~(1 << m):
                return False
    return True


def is_chordal(g: "Uccg") -> bool:
    return is_peo(g, lbfs(g)[::-1])


@dataclass(frozen=True)
class CliqueTree:
    """Rooted clique tree of a chordal graph.

    ``cliques`` holds the maximal cliques as sorted tuples of local vertices;
    ``parent[i] == i`` exactly at the root; ``separators[i]`` is the
    intersection of clique ``i`` with its parent clique (``None`` at the
    root).  ``order`` lists the cliques in BFS order from the root, the
    children of a clique by increasing index.  ``labels`` are the global
    labels of the underlying graph.
    """

    labels: tuple[int, ...]
    cliques: tuple[tuple[int, ...], ...]
    parent: tuple[int, ...]
    root: int
    separators: tuple[tuple[int, ...] | None, ...]
    order: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.cliques)


def clique_tree(g: "Uccg", rng: random.Random | None = None) -> CliqueTree:
    """Build a rooted clique tree from a single LBFS sweep.

    Maximal cliques are collected as runs of the sweep: a visited vertex whose
    earlier-neighbor set no longer contains the running clique closes it and
    starts a new one, which is attached to the clique of its most recently
    visited earlier neighbor.  The default root is the clique containing the
    lowest label; with ``rng`` both the LBFS ties and the root are
    randomized.  Clique trees are not unique, but every quantity derived from
    them downstream is tree-invariant.

    A complete graph gets its one-clique tree without building adjacency;
    ``rng`` is advanced as the sweep would advance it (see
    :func:`_skip_sweep_of_complete`).
    """
    n = g.n
    if n == 0:
        raise ValueError("empty graph has no clique tree")
    if g._is_complete():
        if rng is not None:
            _skip_sweep_of_complete(rng, n)
        return CliqueTree(g.labels, (tuple(range(n)),), (0,), 0, (None,), (0,))
    return _clique_tree_of_sweep(g, lbfs(g, rng=rng), rng)


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
    g: "Uccg", sweep: Sequence[int], rng: random.Random | None
) -> CliqueTree:
    """Clique tree from the LBFS visit order ``sweep`` of ``g``; ``rng`` picks
    the root (default: the clique containing local vertex 0)."""
    masks = g.adj_masks
    visited = 1 << sweep[0]
    cliques = [visited]  # vertex masks; the last one is the running clique
    attach = [-1]
    # the clique each vertex joined on its visit, non-decreasing along the sweep
    clique_of = [0] * g.n
    for v in sweep[1:]:
        earlier = masks[v] & visited
        assert earlier, "a connected graph cannot start a component mid-sweep"
        if cliques[-1] & ~earlier:
            # attach to the clique of the latest visited vertex of ``earlier``
            attach.append(max(map(clique_of.__getitem__, mask_bits(earlier))))
            cliques.append(0)
        cliques[-1] = earlier | 1 << v
        clique_of[v] = len(cliques) - 1
        visited |= 1 << v

    k = len(cliques)
    if rng is not None:
        root = rng.randrange(k)
    else:
        root = next(i for i, c in enumerate(cliques) if c & 1)

    tree_adj: list[list[int]] = [[] for _ in range(k)]
    for s in range(1, k):
        tree_adj[s].append(attach[s])
        tree_adj[attach[s]].append(s)

    parent = [-1] * k
    parent[root] = root
    bfs = [root]
    for x in bfs:
        for y in tree_adj[x]:
            if parent[y] == -1:
                parent[y] = x
                bfs.append(y)

    separators = tuple(
        None if x == root else tuple(mask_bits(c & cliques[parent[x]]))
        for x, c in enumerate(cliques)
    )
    clique_tuples = tuple(tuple(mask_bits(c)) for c in cliques)
    return CliqueTree(g.labels, clique_tuples, tuple(parent), root, separators, tuple(bfs))
