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


class NotCliqueError(ValueError):
    """The supplied vertex set is not a clique of the graph."""


def _check_clique(g: Uccg, verts: Sequence[int]) -> int:
    """Bitmask of ``verts`` after checking that they form a clique of ``g``."""
    if len(set(verts)) != len(verts):
        raise NotCliqueError("clique vertices must be distinct")
    for u in verts:
        if not 0 <= u < g.n:
            raise NotCliqueError(f"vertex {u} out of range")
    kmask = vertex_mask(verts)
    masks = g.adj_masks
    for u in verts:
        if (masks[u] | 1 << u) & kmask != kmask:
            raise NotCliqueError("vertex set is not a clique")
    return kmask


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


def components_after_clique(
    g: Uccg, clique: Sequence[int], check: bool = True
) -> list[Uccg]:
    """Components left undirected once the clique (in any order) is fixed first.

    ``clique`` is given as local vertex ids.  The result is independent of the
    traversal's internal tie-breaking and of the order the clique would be
    visited in; components are returned in the order their enclosing block was
    recorded, which is consistent with the forced edge directions between
    them.
    """
    kmask = _check_clique(g, clique) if check else vertex_mask(set(clique))
    rest = ((1 << g.n) - 1) ^ kmask
    _, records = refine_traversal(g.adj, [kmask, rest], skip_record=kmask, masks=g.adj_masks)
    return _emit_components(g, records)
