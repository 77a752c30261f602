"""Lexicographic BFS, the chordality test of its sweep, and clique trees."""

from __future__ import annotations

import random
from bisect import bisect_left
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
    ``rng`` for randomized tie-breaking.
    """
    block = (1 << g.n) - 1 if sub is None else sub
    return tuple(refine_traversal(g.adj, [block], rng=rng, masks=g.adj_masks)[0])


class NotChordalError(ValueError):
    """An undirected component that has to be chordal is not."""

    def __init__(self, labels: Iterable[int] = ()):
        self.labels = tuple(labels)
        msg = "graph is not chordal"
        if self.labels:
            msg += f" (component {list(self.labels)})"
        super().__init__(msg)


def is_chordal(g: "Uccg") -> bool:
    """True iff ``g`` is chordal: the clique sweep of one LBFS passes.  The
    cliques it finds are kept on ``g`` for its unseeded clique tree."""
    return g._cliques is not None


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
    nothing from ``rng``.  The unseeded tree of the whole of ``g`` is built
    from the cliques its chordality check found, kept on ``g``; any other
    tree sweeps its subgraph.
    """
    whole = (1 << g.n) - 1
    if sub is None:
        sub = whole
    if not sub:
        raise ValueError("empty graph has no clique tree")
    masks = g.adj_masks
    rest = sub
    while rest:
        low = rest & -rest
        if (masks[low.bit_length() - 1] | low) & sub != sub:
            break
        rest ^= low
    if not rest:  # every vertex is adjacent to all others
        return CliqueTree((sub,), (0,), (None,), (0,), ((),))
    found = g._cliques if rng is None and sub == whole else _cliques_of_sweep(g, lbfs(g, rng, sub))
    if found is None:
        raise NotChordalError(map(g.labels.__getitem__, mask_bits(sub)))
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

    No vertex of ``E`` is listed: the clique a vertex joins never decreases
    along the sweep, so ``a`` is the least ``i`` whose prefix ``upto[i]``,
    the vertices visited by the end of clique ``i``, holds ``E``, found by
    binary search over the prefixes of the closed cliques; if none holds
    ``E``, ``a`` is the running clique.
    """
    masks = g.adj_masks
    visited = 0
    cliques = [0]  # the last one is the running clique
    upto: list[int] = []  # upto[i]: the vertices visited by the end of closed clique i
    attach: list[int] = []
    for v in sweep:
        bit = 1 << v
        earlier = masks[v] & visited
        if earlier != cliques[-1]:
            a = bisect_left(upto, True, key=lambda u: earlier & u == earlier) if earlier else -1
            if earlier | cliques[a] != cliques[a]:
                return None
            attach.append(a)
            upto.append(visited)
            cliques.append(0)
        cliques[-1] = earlier | bit
        visited |= bit
    return cliques, attach
