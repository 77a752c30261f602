"""Brute-force ground truth for tests: exhaustive orientation enumeration
and source-picking recursion.

Everything here favors being obviously correct over being fast; hard size
guards keep the enumerations within reach: past them, ``enumerate_amos`` and
``count_root_picking`` raise ``TooLargeError``.
"""

from __future__ import annotations

from typing import Sequence

from ._partition import mask_bits
from .graphs import Dag, Uccg
# perfbench's tracer rebinds every module alias of a layer function, and its
# tests read this one
from .subproblems import components_after_clique  # noqa: F401
from .subproblems import components_by_traversal


# the most subproblems ``count_root_picking`` memoizes: a complete graph on
# k vertices has 2^k - 1 of them, so K_16 is the largest one it counts
ROOT_PICKING_SUBPROBLEMS = 1 << 16


class TooLargeError(ValueError):
    """Input exceeds the brute-force size guard."""


def v_structures(dag: Dag, adjacency: Sequence[Sequence[int]] | None = None) -> set[tuple[int, int, int]]:
    """All induced a -> b <- c with a, c nonadjacent, as (a, b, c) with a < c.

    ``adjacency`` defaults to the DAG's own skeleton; pass the skeleton of a
    larger partially directed graph to evaluate v-structures in its sense.
    """
    parents: list[list[int]] = [[] for _ in range(dag.n)]
    for u, v in dag.edges():
        parents[v].append(u)
    if adjacency is None:
        nbr = [set(ps).union(dag.out_edges[b]) for b, ps in enumerate(parents)]
    else:
        nbr = [set(a) for a in adjacency]
    out: set[tuple[int, int, int]] = set()
    for b in range(dag.n):
        ps = parents[b]
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                a, c = ps[i], ps[j]
                if a > c:
                    a, c = c, a
                if c not in nbr[a]:
                    out.add((a, b, c))
    return out


def enumerate_amos(g: Uccg) -> list[Dag]:
    """Every orientation of ``g`` that is acyclic and creates no v-structure.

    Walks the 2^|E| orientation space edge by edge, pruning any branch whose
    partial orientation already closed a directed cycle; limited to 24 edges.
    The result is duplicate-free by construction and deterministically ordered
    (low-to-high orientation explored first per edge).
    """
    n = g.n
    edges = sorted(g.edges())
    m = len(edges)
    if m > 24:
        raise TooLargeError(f"component with {m} edges exceeds the enumeration limit of 24")
    adj_mask = [0] * n
    for u, v in edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u

    out: list[Dag] = []
    chosen: list[tuple[int, int]] = []

    def moral(orient: list[tuple[int, int]]) -> bool:
        in_mask = [0] * n
        for u, v in orient:
            in_mask[v] |= 1 << u
        for b in range(n):
            mask = in_mask[b]
            rest = mask
            while rest:
                low = rest & -rest
                a = low.bit_length() - 1
                rest ^= low
                if mask & ~adj_mask[a] & ~low:
                    return False
        return True

    def rec(idx: int, reach: list[int]) -> None:
        if idx == m:
            if moral(chosen):
                out.append(Dag.from_edges(n, chosen))
            return
        u, v = edges[idx]
        for a, b in ((u, v), (v, u)):
            # a -> b closes a cycle iff a is already reachable from b
            if not (reach[b] >> a) & 1:
                new_reach = list(reach)
                rb = new_reach[b]
                for w in range(n):
                    if (new_reach[w] >> a) & 1 or w == a:
                        new_reach[w] |= rb
                chosen.append((a, b))
                rec(idx + 1, new_reach)
                chosen.pop()

    rec(0, [1 << v for v in range(n)])
    return out


def count_root_picking(g: Uccg) -> int:
    """Count AMOs by fixing each vertex as the unique source and recursing on
    the parts left undirected.  Independent of the clique-level counter;
    limited to 25 vertices and to ``ROOT_PICKING_SUBPROBLEMS`` memoized
    parts, and the recursion is at most ``g.n`` deep.  Parts are vertex
    masks of ``g``, memoized by mask."""
    if g.n > 25:
        raise TooLargeError(f"component with {g.n} vertices exceeds the root-picking limit of 25")
    memo: dict[int, int] = {}

    def count(sub: int) -> int:
        total = memo.get(sub)
        if total is None:
            # parts are memoized as their calls return, several between two
            # misses, so the bound is checked with >=
            if len(memo) >= ROOT_PICKING_SUBPROBLEMS:
                raise TooLargeError(f"component with {g.n} vertices needs more than "
                                    f"{ROOT_PICKING_SUBPROBLEMS} root-picking subproblems")
            total = 0
            for s in mask_bits(sub):
                prod = 1
                for c in components_by_traversal(g, 1 << s, sub):
                    prod *= count(c)
                total += prod
            memo[sub] = total
        return total

    return count((1 << g.n) - 1)
