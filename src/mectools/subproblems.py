"""Undirected components remaining after fixing a clique prefix.

Given a chordal graph and a clique K, every topological ordering that starts
with K forces the same orientations outside K; what is left undirected splits
into connected chordal subgraphs that can be handled independently.  One
partition-refinement traversal seeded with the block sequence (K, V \\ K)
finds them.  Subgraphs are vertex masks over one graph's local vertices, the
root of an exploration: a component is the mask of its vertices, and its
adjacency is the root's restricted to that mask.
"""

from __future__ import annotations

from ._partition import refine_traversal
from .graphs import Uccg


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


def components_after_clique(g: Uccg, clique: int, sub: int | None = None) -> list[int]:
    """Components left undirected once the clique (in any order) is fixed
    first in ``g``, or in its subgraph induced on the vertex mask ``sub``,
    as vertex masks over ``g``'s local vertices.

    ``clique`` is the vertex mask of a clique of that graph, as the clique
    tree and the root-picking oracle build it; it is not checked again
    here.  The result is independent of the traversal's internal
    tie-breaking and of the order the clique would be visited in;
    components come in the order their enclosing block was recorded, which
    is consistent with the forced edge directions between them.
    """
    rest = ((1 << g.n) - 1 if sub is None else sub) ^ clique
    _, records = refine_traversal(g.adj, [clique, rest], skip_record=clique, masks=g.adj_masks)
    return _emit_components(g, records)
