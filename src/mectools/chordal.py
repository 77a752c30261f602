"""Lexicographic BFS, the chordality test of its sweep, and clique trees."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from ._partition import mask_bits, refine_traversal

if TYPE_CHECKING:
    from .graphs import Uccg


def lbfs(g: "Uccg", rng: random.Random | None = None, sub: int | None = None) -> tuple[int, ...]:
    """Lexicographic BFS visit order of ``g``, or of its subgraph induced on
    the vertex mask ``sub``, in O(|V|+|E|).

    Its reverse is a perfect elimination ordering whenever that graph is
    chordal.  Ties are broken toward the lowest local index by default; pass
    ``rng`` for randomized tie-breaking.  Without ``rng`` the order is kept
    on ``g`` per vertex mask, swept on the first call and returned after; a
    seeded sweep is never kept.
    """
    block = (1 << g.n) - 1 if sub is None else sub
    if rng is None and block in g._sweeps:
        return g._sweeps[block]
    order = tuple(refine_traversal(g.adj, [block], rng=rng, masks=g.adj_masks)[0])
    if rng is None:
        g._sweeps[block] = order
    return order


class NotChordalError(ValueError):
    """An undirected component that has to be chordal is not."""

    def __init__(self, labels: Iterable[int] = ()):
        self.labels = tuple(labels)
        msg = "graph is not chordal"
        if self.labels:
            msg += f" (component {list(self.labels)})"
        super().__init__(msg)


def is_chordal(g: "Uccg") -> bool:
    """True iff ``g`` is chordal: the clique sweep of one LBFS passes."""
    return _cliques_of_sweep(g, lbfs(g)) is not None


@dataclass(frozen=True)
class CliqueTree:
    """Rooted clique tree of a chordal graph.

    ``cliques`` holds the maximal cliques as masks of local vertices;
    ``parent[i] == i`` exactly at the root; ``separators[i]`` is the mask
    ``cliques[i] & cliques[parent[i]]`` (``None`` at the root).  ``order``
    lists the cliques in BFS order from the root, which is ``order[0]``, the
    children of a clique by increasing index.  ``adj[i]`` lists the tree
    neighbors of clique ``i``.
    """

    cliques: tuple[int, ...]
    parent: tuple[int, ...]
    separators: tuple[int | None, ...]
    order: tuple[int, ...]
    adj: tuple[tuple[int, ...], ...]


def clique_tree(g: "Uccg", rng: random.Random | None = None, sub: int | None = None) -> CliqueTree:
    """Build a rooted clique tree of ``g``, or of its subgraph induced on the
    vertex mask ``sub``, from a single LBFS sweep, in ``g``'s local vertices.

    The sweep collects the maximal cliques and tests chordality on the way
    (see :func:`_cliques_of_sweep`); a graph that is not chordal raises
    :class:`NotChordalError`, an empty or disconnected one ``ValueError``.
    Each new clique is attached to the clique of its most recently visited
    earlier neighbor.  The default root is clique 0, holding the lowest
    vertex; with ``rng`` both the LBFS ties and the root are randomized.
    Clique trees are not unique, but every quantity derived from them
    downstream is tree-invariant.

    A complete graph gets its one-clique tree without a sweep and draws
    nothing from ``rng``.  Without ``rng`` the tree is built from the sweep
    :func:`lbfs` keeps on ``g``.
    """
    if sub is None:
        sub = (1 << g.n) - 1
    if not sub:
        raise ValueError("empty graph has no clique tree")
    masks = g.adj_masks
    verts = mask_bits(sub)
    if all((masks[v] | 1 << v) & sub == sub for v in verts):
        return CliqueTree((sub,), (0,), (None,), (0,), ((),))
    return _clique_tree_of_sweep(g, lbfs(g, rng, sub), rng)


def _cliques_of_sweep(
    g: "Uccg", sweep: Sequence[int]
) -> tuple[list[int], list[int]] | None:
    """The maximal cliques of the subgraph of ``g`` that its LBFS visit
    order ``sweep`` covers, as vertex masks collected as runs of ``sweep``,
    and the clique each later one is attached to; ``None`` if that graph is
    not chordal.

    A vertex ``v`` extends the running clique iff its earlier neighbors
    ``E`` equal it: that clique is the previous vertex ``u`` with its
    earlier neighbors, so ``E`` cannot hold more, or LBFS would have picked
    ``v`` before ``u``.  Otherwise ``v`` starts a new clique, attached to
    the clique ``a`` of its latest visited vertex in ``E``, and ``E`` must
    lie inside clique ``a``, as it does in a chordal graph.  So every ``E``
    is a clique and the reversed sweep is a perfect elimination ordering.
    The first vertex of a further component has ``E`` empty and attaches
    to -1.
    """
    masks = g.adj_masks
    visited = 0
    cliques = [0]  # the last one is the running clique
    attach: list[int] = []
    # the clique each vertex joined on its visit, non-decreasing along the sweep
    clique_of = [0] * g.n
    for v in sweep:
        bit = 1 << v
        earlier = masks[v] & visited
        if earlier != cliques[-1]:
            a = max(map(clique_of.__getitem__, mask_bits(earlier)), default=-1)
            if earlier | cliques[a] != cliques[a]:
                return None
            attach.append(a)
            cliques.append(0)
        cliques[-1] = earlier | bit
        clique_of[v] = len(cliques) - 1
        visited |= bit
    return cliques, attach


def _clique_tree_of_sweep(
    g: "Uccg", sweep: Sequence[int], rng: random.Random | None
) -> CliqueTree:
    """Clique tree from an LBFS visit order ``sweep`` in ``g``; ``rng`` picks
    the root (default: clique 0, the first swept)."""
    found = _cliques_of_sweep(g, sweep)
    if found is None:
        raise NotChordalError(map(g.labels.__getitem__, sorted(sweep)))
    cliques, attach = found
    if -1 in attach:
        raise ValueError("graph not connected")

    k = len(cliques)
    root = 0 if rng is None else rng.randrange(k)

    tree_adj: list[list[int]] = [[] for _ in range(k)]
    for s, a in enumerate(attach, 1):
        tree_adj[s].append(a)
        tree_adj[a].append(s)

    parent = [-1] * k
    parent[root] = root
    bfs = [root]
    for x in bfs:
        for y in tree_adj[x]:
            if parent[y] == -1:
                parent[y] = x
                bfs.append(y)

    separators = tuple(
        None if x == root else c & cliques[parent[x]] for x, c in enumerate(cliques)
    )
    return CliqueTree(
        tuple(cliques), tuple(parent), separators, tuple(bfs), tuple(map(tuple, tree_adj))
    )
