"""Undirected components remaining after fixing a clique prefix.

Given a chordal graph and a clique K, every topological ordering that starts
with K forces the same orientations outside K; what is left undirected splits
into connected chordal subgraphs that can be handled independently.
Subgraphs are vertex masks over one graph's local vertices, the root of an
exploration: a component is the mask of its vertices, and its adjacency is
the root's restricted to that mask.

:func:`components_by_traversal` finds them, in order: one
partition-refinement traversal seeded with the block sequence (K, V \\ K).
A count needs only how many there are and which, and reads both off a clique
tree (Wienöbst, Bannach & Liśkiewicz, JMLR 24, 2023):

- each tree edge K–C opens a *head* labelled S = K∩C;
- a head entered over the tree edge P→A owns a *region*: the cliques that
  can be reached from A without passing P and that all contain S.  Cut at
  every tree edge whose separator is exactly S, each piece, as the union of
  its cliques minus S, is one component;
- each tree edge from a region clique E to a clique F that does not contain
  S opens a head, with a region of its own.

A region depends only on its directed tree edge, so :func:`tree_regions`
builds it once per tree, with the number of components it leads to, and a
node's :class:`Components` know their number at once, the sum over its
heads.  Their order is the traversal's, run when they are first read: by a
draw, once per record it reaches, and never by a count.
"""

from __future__ import annotations

from typing import Dict, Iterator

from ._partition import refine_traversal
from .chordal import CliqueTree
from .graphs import Uccg


class Region:
    """A head's region: its pieces as a tuple, and ``keys``, the number of
    components it leads to (its pieces and, recursively, those of the
    regions they open).

    A piece is its vertex mask and the regions of the heads it opens, as a
    tuple (the shared ``()`` when none).
    """

    __slots__ = ("pieces", "keys")

    def __init__(self, pieces: tuple["Piece", ...], keys: int):
        self.pieces = pieces
        self.keys = keys


Piece = tuple[int, tuple[Region, ...]]


def _emit_components(g: Uccg, blocks: list[int]) -> list[int]:
    """Connected components of each recorded block as vertex masks, blocks
    in order and the components of one block by increasing lowest vertex."""
    masks = g.adj_masks
    out: list[int] = []
    for left in blocks:
        while left:
            comp = frontier = left & -left
            left ^= comp
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                new = masks[low.bit_length() - 1] & left
                if new:
                    left ^= new
                    comp |= new
                    frontier |= new
            out.append(comp)
    return out


def components_by_traversal(g: Uccg, clique: int, sub: int | None = None) -> list[int]:
    """Components left undirected once the clique (in any order) is fixed
    first in ``g``, or in its subgraph induced on the vertex mask ``sub``,
    as vertex masks over ``g``'s local vertices.

    ``clique`` is the vertex mask of a clique of that graph, as the
    root-picking oracle builds it; it is not checked again here.  The
    result is independent of the traversal's internal tie-breaking and of
    the order the clique would be visited in; components come in the order
    their enclosing block was recorded, which is consistent with the forced
    edge directions between them.
    """
    rest = ((1 << g.n) - 1 if sub is None else sub) ^ clique
    _, records = refine_traversal(g.adj, [clique, rest], skip_record=clique, masks=g.adj_masks)
    return _emit_components(g, records)


def tree_regions(tree: CliqueTree) -> list[list[Region]]:
    """Per node of ``tree``, the regions of the heads its tree edges open.

    ``tree`` is a clique tree of a subgraph that is not complete.  Every
    directed tree edge's region is built once, after the regions behind it,
    so each piece links the regions of the heads it opens as it is built
    and each region counts its keys from theirs.
    """
    cliques = tree.cliques
    tree_adj = tree.adj
    parent = tree.parent
    non_root = tree.order[1:]
    regions: Dict[tuple[int, int], Region] = {}
    # the edges towards the leaves, deepest first, then those towards the
    # root, highest first: either way every edge beyond one comes before it
    for p, a in [(parent[x], x) for x in reversed(non_root)] + [(x, parent[x]) for x in non_root]:
        s = cliques[p] & cliques[a]
        # per piece: the union of its cliques and its exits
        unions = [cliques[a]]
        exits: list[list[tuple[int, int]]] = [[]]
        stack = [(a, p, 0)]
        while stack:
            e, came, i = stack.pop()
            ce = cliques[e]
            for f in tree_adj[e]:
                if f == came:
                    continue
                cf = cliques[f]
                if cf & s != s:
                    exits[i].append((e, f))
                    continue
                if ce & cf == s:
                    j = len(unions)
                    unions.append(cf)
                    exits.append([])
                else:
                    j = i
                    unions[i] |= cf
                stack.append((f, e, j))
        pieces: list[Piece] = []
        keys = len(unions)
        for union, edges in zip(unions, exits):
            opens = tuple([regions[edge] for edge in edges])
            keys += sum(region.keys for region in opens)
            pieces.append((union ^ s, opens))
        regions[(p, a)] = Region(tuple(pieces), keys)
    return [[regions[(p, a)] for a in near] for p, near in enumerate(tree_adj)]


class Components:
    """The components left once a clique is fixed first in a subgraph, as a
    sequence of vertex masks in the traversal's order.

    Its length is given, the summed key counts of the clique's heads.  The
    traversal runs on the first read that needs the order, which is then
    kept in one slot, so readers that race each read a whole order.
    """

    __slots__ = ("_g", "_clique", "_sub", "_keys", "_len")

    def __init__(self, g: Uccg, clique: int, sub: int, length: int):
        self._g = g
        self._clique = clique
        self._sub = sub
        self._keys: tuple[int, ...] | None = None
        self._len = length

    def ordered(self) -> tuple[int, ...]:
        """The components in order, as a tuple."""
        keys = self._keys
        if keys is None:
            keys = self._keys = tuple(components_by_traversal(self._g, self._clique, self._sub))
        return keys

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[int]:
        return iter(self.ordered())

    def __reversed__(self) -> Iterator[int]:
        return reversed(self.ordered())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Components, tuple)):
            return self.ordered() == tuple(other)
        return NotImplemented


def components_after_clique(g: Uccg, clique: int, sub: int, heads: list[Region]) -> Components:
    """Components left undirected once ``clique``, a node of a clique tree of
    the subgraph of ``g`` on the vertex mask ``sub``, which is not complete,
    is fixed first in that subgraph, as vertex masks over ``g``'s local
    vertices, in the order :func:`components_by_traversal` gives them.

    ``heads`` are the regions of the heads the node's tree edges open, as
    :func:`tree_regions` lists them for the node; only their key counts are
    kept, as the result's length.  Its order is the traversal's, run when it
    is first read.
    """
    return Components(g, clique, sub, sum(region.keys for region in heads))
