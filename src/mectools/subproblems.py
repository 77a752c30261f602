"""Undirected components remaining after fixing a clique prefix.

Given a chordal graph and a clique K, every topological ordering that starts
with K forces the same orientations outside K; what is left undirected splits
into connected chordal subgraphs that can be handled independently.  One
partition-refinement traversal seeded with the block sequence (K, V \\ K)
finds them.  The components are returned as induced subgraphs that build
their adjacency only when it is first used, so a caller that only needs
their keys pays for none.
"""

from __future__ import annotations

from typing import Sequence

from ._partition import refine_traversal, vertex_mask
from .graphs import Uccg


def _emit_components(g: Uccg, blocks: list[int]) -> list[Uccg]:
    """Connected components of each recorded block, blocks in order and the
    components of one block by increasing lowest vertex."""
    masks = g.adj_masks
    out: list[Uccg] = []
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
            out.append(Uccg._induced(g, comp))
    return out


def components_after_clique(g: Uccg, clique: Sequence[int]) -> list[Uccg]:
    """Components left undirected once the clique (in any order) is fixed first.

    ``clique`` is a clique of ``g`` given as distinct local vertex ids, as
    the clique tree and the root-picking oracle build it; it is not checked
    again here.  The result is independent of the traversal's internal
    tie-breaking and of the order the clique would be visited in;
    components are returned in the order their enclosing block was
    recorded, which is consistent with the forced edge directions between
    them.
    """
    kmask = vertex_mask(clique)
    rest = ((1 << g.n) - 1) ^ kmask
    _, records = refine_traversal(g.adj, [kmask, rest], skip_record=kmask, masks=g.adj_masks)
    return _emit_components(g, records)
