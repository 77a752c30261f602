"""Undirected components remaining after fixing a clique prefix.

Given a chordal graph and a clique K, every topological ordering that starts
with K forces the same orientations outside K; what is left undirected splits
into connected chordal subgraphs that can be handled independently.
Subgraphs are vertex masks over one graph's local vertices, the root of an
exploration: a component is the mask of its vertices, and its adjacency is
the root's restricted to that mask.

Two functions find them, in the same order.
:func:`components_by_traversal` takes any clique and runs one
partition-refinement traversal seeded with the block sequence (K, V \\ K):
it is the reference, and the root-picking oracle's step.
:func:`components_after_clique` takes a node K of the subgraph's clique tree
and reads the components off the tree (Wienöbst, Bannach & Liśkiewicz,
JMLR 24, 2023):

- each tree edge K–C opens a *head* labelled S = K∩C;
- a head entered over the tree edge P→A owns a *region*: the cliques that
  can be reached from A without passing P and that all contain S.  Cut at
  every tree edge whose separator is exactly S, each piece, as the union of
  its cliques minus S, is one component;
- each tree edge from a region clique E to a clique F that does not contain
  S opens a head labelled E∩F.

The traversal visits K's vertices first, in index order, and then each
component in turn, as one LBFS sweep of it (index order when it is
complete).  A head's label is the set of visited neighbours its region's
vertices share, so the traversal's next recorded block is every pending
head with the label whose earliest-visited distinguishing vertex comes
first, and the block's components come by increasing lowest vertex.  A
region depends only on its directed tree edge, so it is built once per tree,
with the number of components it leads to.  A node's components number the
sum over its heads, known at once; the visit times and the order of the
labels are worked out per clique, and only when the components are first
read: by a draw, once per record it reaches, and never by a count.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterator

from ._partition import refine_traversal
from .chordal import CliqueTree, lbfs
from .graphs import Uccg


class Region:
    """A head's region: its label S as a vertex mask, its pieces as a tuple,
    and ``keys``, the number of components it leads to (its pieces and,
    recursively, those of the regions they open).

    A piece is its vertex mask, the LBFS order the traversal visits it in
    (None when that is index order, as in a complete piece) and the regions
    of the heads it opens, as a tuple (the shared ``()`` when none): a model
    holds regions until its records are ordered, and tuples are small.  An
    opened head keeps no visit time: the traversal keys it by the first
    vertex of the label it was opened under when its own label holds that
    vertex, and looks its first vertex up among the visited ones otherwise.
    """

    __slots__ = ("label", "pieces", "keys")

    def __init__(self, label: int, pieces: tuple["Piece", ...], keys: int):
        self.label = label
        self.pieces = pieces
        self.keys = keys


Piece = tuple[int, "tuple[int, ...] | None", tuple[Region, ...]]


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


def tree_regions(g: Uccg, tree: CliqueTree) -> list[list[Region]]:
    """Per node of ``tree``, the regions of the heads its tree edges open,
    as :func:`components_after_clique` reads them.

    ``tree`` is a clique tree of a subgraph of ``g`` that is not complete.
    Every directed tree edge's region is built once, after the regions
    behind it, so each piece links the regions of the heads it opens as it
    is built and each region counts its keys from theirs.  A piece that is
    not complete is visited in the LBFS order :func:`lbfs` keeps on ``g``,
    the sweep its own clique tree is built from.
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
        # per piece: the union of its cliques, whether it has one, its exits
        unions = [cliques[a]]
        single = [True]
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
                    single.append(True)
                    exits.append([])
                else:
                    j = i
                    unions[i] |= cf
                    single[i] = False
                stack.append((f, e, j))
        pieces: list[Piece] = []
        keys = len(unions)
        for union, one, edges in zip(unions, single, exits):
            x = union ^ s
            # one maximal clique minus S is complete; two never are
            order = None if one else lbfs(g, sub=x)
            opens = tuple([regions[edge] for edge in edges])
            keys += sum(region.keys for region in opens)
            pieces.append((x, order, opens))
        regions[(p, a)] = Region(s, tuple(pieces), keys)
    return [[regions[(p, a)] for a in near] for p, near in enumerate(tree_adj)]


class _Visits:
    """The vertices one traversal has visited, as runs in visit order: the
    clique first, then one run per component, each visited in index order
    or in its LBFS order."""

    __slots__ = ("upto", "runs")

    def __init__(self, clique: int):
        self.upto = [clique]  # upto[i]: the vertices of runs 0..i
        # per run: its first visit time, its vertices, its order (None: index)
        self.runs: list[tuple[int, int, tuple[int, ...] | None]] = [(0, clique, None)]

    def add(self, start: int, run: int, order: tuple[int, ...] | None) -> None:
        self.upto.append(self.upto[-1] | run)
        self.runs.append((start, run, order))

    def first(self, m: int) -> tuple[int, int]:
        """The visit time and the bit of the vertex of the visited mask
        ``m`` that was visited first."""
        upto = self.upto
        lo, hi = 0, len(upto) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if m & upto[mid]:
                hi = mid
            else:
                lo = mid + 1
        start, run, order = self.runs[lo]
        m &= run
        if order is None:
            low = m & -m
            return start + (run & (low - 1)).bit_count(), low
        return next((start + i, 1 << v) for i, v in enumerate(order) if m >> v & 1)


class _Head:
    """A pending head: its label, its pieces and the bit of its label's
    first-visited vertex.  Heads are queued behind that vertex's visit time;
    on a tie, this order makes the traversal's larger label, the one whose
    earliest-visited distinguishing vertex comes first, the lesser."""

    __slots__ = ("label", "pieces", "bit", "visits")

    def __init__(self, region: Region, bit: int, visits: _Visits):
        self.label = region.label
        self.pieces = region.pieces
        self.bit = bit
        self.visits = visits

    def __lt__(self, other: "_Head") -> bool:
        d = self.label ^ other.label
        return d != 0 and self.visits.first(d)[1] & self.label != 0


def _order_components(clique: int, heads: list[Region]) -> tuple[int, ...]:
    """The components a :class:`Components` stands for, in the traversal's
    order: pending heads are taken by the visit time of their label's
    first-visited vertex, each block's pieces by lowest vertex."""
    visits = _Visits(clique)
    queue = []
    for region in heads:
        # the clique is visited in index order
        bit = region.label & -region.label
        queue.append(((clique & (bit - 1)).bit_count(), _Head(region, bit, visits)))
    heapify(queue)
    clock = clique.bit_count()
    out: list[int] = []
    while queue:
        t, head = heappop(queue)
        label = head.label
        block = head.pieces
        while queue and queue[0][1].label == label:
            block = block + heappop(queue)[1].pieces
        if len(block) > 1:
            block = sorted(block, key=lambda piece: piece[0] & -piece[0])
        for x, order, opens in block:
            out.append(x)
            visits.add(clock, x, order)
            for region in opens:
                # the label's first vertex is the first vertex of this
                # block's label when it holds that, else it is looked up
                if region.label & head.bit:
                    key, bit = t, head.bit
                else:
                    key, bit = visits.first(region.label)
                heappush(queue, (key, _Head(region, bit, visits)))
            clock += x.bit_count()
    return tuple(out)


class Components:
    """The components left once a clique is fixed first, as a sequence of
    vertex masks in the traversal's order.

    Its length is the summed key counts of the clique's heads, known at
    once.  The order is worked out on the first read that needs it, then
    kept in the heads' place, so the heads are let go.
    """

    __slots__ = ("_clique", "_keys", "_len")

    def __init__(self, clique: int, heads: list[Region]):
        self._clique = clique
        # the heads until the order is worked out, then the ordered tuple;
        # one slot, so a reader sees one or the other, never neither
        self._keys: list[Region] | tuple[int, ...] = heads
        self._len = sum(region.keys for region in heads)

    def ordered(self) -> tuple[int, ...]:
        """The components in order, as a tuple."""
        keys = self._keys
        if type(keys) is not tuple:
            keys = self._keys = _order_components(self._clique, keys)
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


def components_after_clique(clique: int, heads: list[Region]) -> Components:
    """Components left undirected once ``clique``, a node of a clique tree of
    a subgraph that is not complete, is fixed first in that subgraph, as
    vertex masks over the graph's local vertices, in the order
    :func:`components_by_traversal` gives them.

    ``heads`` are the regions of the heads the node's tree edges open, as
    :func:`tree_regions` lists them for the node.  The result's length is
    known at once; its order is worked out when it is first read.
    """
    return Components(clique, heads)
