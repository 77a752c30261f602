"""Partially directed graphs, their undirected chordal components, and file I/O.

Vertices of a :class:`PartialGraph` are 0-indexed internally; the text file
format is 1-indexed.  A :class:`Uccg` keeps a strictly increasing tuple of
*global* vertex labels next to its local adjacency; an induced subgraph of
it is the int mask of its local vertices, and its adjacency the
neighbourhood masks restricted to that mask.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress
from operator import itemgetter, lt
from typing import Iterable, Iterator, Sequence

from ._partition import adjacency_masks
from .chordal import NotChordalError, _cliques_of_sweep, is_chordal, lbfs


class ParseError(ValueError):
    """Input text does not conform to the graph file format."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class NotCpdagError(ValueError):
    """The graph cannot be the CPDAG of a Markov equivalence class."""


@dataclass(frozen=True)
class PartialGraph:
    """A graph with undirected and directed edges (e.g. a CPDAG).

    ``undirected[u]`` is the strictly increasing tuple of undirected
    neighbors of ``u``; ``directed_out[u]`` the strictly increasing tuple of
    heads of edges ``u -> v``.  A vertex pair carries at most one edge
    overall.
    """

    n: int
    undirected: tuple[tuple[int, ...], ...]
    directed_out: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.n
        if len(self.undirected) != n or len(self.directed_out) != n:
            raise ValueError("adjacency length does not match vertex count")
        if not all(map(_strictly_increasing, self.undirected)) or not all(
            map(_strictly_increasing, self.directed_out)
        ):
            raise ValueError("neighbor lists must be sorted and duplicate-free")
        nbrs = list(map(frozenset, self.undirected))
        for u, row in enumerate(self.undirected):
            for v in row:
                if v == u:
                    raise ValueError("self-loop")
                if not 0 <= v < n:
                    raise ValueError("vertex out of range")
                if u not in nbrs[v]:
                    raise ValueError("undirected adjacency not symmetric")
        pairs: set[int] = set()  # directed pairs as the int key lo*n+hi
        for u, row in enumerate(self.directed_out):
            for v in row:
                if v == u:
                    raise ValueError("self-loop")
                if not 0 <= v < n:
                    raise ValueError("vertex out of range")
                key = u * n + v if u < v else v * n + u
                if v in nbrs[u] or key in pairs:
                    raise ValueError("vertex pair carries more than one edge")
                pairs.add(key)

    @classmethod
    def _unchecked(cls, n, undirected, directed_out) -> "PartialGraph":
        """Build without :meth:`__post_init__`, for rows the library made
        from input it has already checked."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "undirected", undirected)
        object.__setattr__(self, "directed_out", directed_out)
        return self

    @cached_property
    def is_chain_graph(self) -> bool:
        """True iff no directed edge lies on a partially directed cycle: no
        directed edge joins two vertices of one undirected component, and
        the directed edges between components close no cycle.  Every CPDAG
        is one.  Computed once per graph, in O(n + m)."""
        out = self.directed_out
        if not any(out):
            return True
        root = self._roots
        # an arrow between components joins their smallest vertices; one
        # inside a component is a loop
        heads: list[list[int]] = [[] for _ in out]
        for u, row in enumerate(out):
            if row:
                heads[root[u]] += map(root.__getitem__, row)
        return _is_acyclic(heads)

    @cached_property
    def _roots(self) -> list[int]:
        """The smallest vertex of every vertex's undirected component, found
        once per graph for the split and :attr:`is_chain_graph`."""
        return _component_roots(self.undirected)

    @cached_property
    def _components(self) -> tuple[Uccg, ...]:
        """The undirected components, found once per graph (see
        :func:`undirected_components`); a component that is not chordal
        raises :class:`NotChordalError`, and none is kept."""
        und = self.undirected
        members: dict[int, list[int]] = {}  # smallest vertex -> the component
        for v, s in enumerate(self._roots):
            if s == v:
                members[v] = [v]
            else:
                members[s].append(v)
        local = [0] * self.n  # global -> local index within the current component
        out: list[Uccg] = []
        for comp in members.values():
            for i, v in enumerate(comp):
                local[v] = i
            to_local = local.__getitem__
            c = Uccg._unchecked(comp, tuple(tuple(map(to_local, und[v])) for v in comp))
            if not is_chordal(c):
                raise NotChordalError(comp)
            out.append(c)
        return tuple(out)

    @cached_property
    def is_flag_free(self) -> bool:
        """True iff no induced ``a -> b - c`` (a flag) occurs: every
        undirected neighbor of a directed edge's head is adjacent to its
        tail.  Every CPDAG is flag-free (Andersson, Madigan & Perlman 1997,
        condition 3).  Computed once per graph, looking only at each directed
        edge and the neighborhoods of its two ends."""
        und, out = self.undirected, self.directed_out
        for a, heads in enumerate(out):
            near = None  # a's undirected and out-neighbors, built on demand
            for b in heads:
                for c in und[b]:
                    near = near or {*und[a], *heads}
                    if c not in near and a not in out[c]:
                        return False
        return True

    @cached_property
    def is_cpdag(self) -> bool:
        """True iff the graph is a flag-free chain graph whose every directed
        edge ``a -> b`` is strongly protected: it lies in an induced
        ``c -> a -> b``, ``a -> b <- c`` or ``a -> c -> b``, or in an induced
        ``a - c1 -> b`` with ``a - c2 -> b``, ``c1`` and ``c2`` nonadjacent.
        With chordal components these are all of the conditions Andersson,
        Madigan & Perlman (1997) give for a CPDAG.  Computed once per graph,
        looking only at each directed edge and the neighborhoods of its two
        ends."""
        if not (self.is_chain_graph and self.is_flag_free):
            return False
        und, out = self.undirected, self.directed_out
        parents: list[list[int]] = [[] for _ in out]
        for a, heads in enumerate(out):
            for b in heads:
                parents[b].append(a)
        near: dict[int, set[int]] = {}  # vertex -> its neighbors, built on demand

        def adjacent(u: int, v: int) -> bool:
            if u not in near:
                near[u] = {*und[u], *out[u], *parents[u]}
            return v in near[u]

        def protected(a: int, b: int) -> bool:
            into_b = parents[b]
            lines = [c for c in into_b if c in und[a]]
            return (
                any(not adjacent(b, c) for c in parents[a])
                or any(c != a and not adjacent(a, c) for c in into_b)
                or any(c in out[a] for c in into_b)
                or any(not adjacent(c, d) for c, d in combinations(lines, 2))
            )

        return all(protected(a, b) for a, heads in enumerate(out) for b in heads)

    @classmethod
    def from_edges(
        cls,
        n: int,
        undirected_edges: Iterable[tuple[int, int]] = (),
        directed_edges: Iterable[tuple[int, int]] = (),
    ) -> "PartialGraph":
        return cls(n, _rows(n, undirected_edges, True), _rows(n, directed_edges, False))

    def directed_edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.directed_out[u]:
                yield (u, v)

    @property
    def num_undirected(self) -> int:
        return sum(len(a) for a in self.undirected) // 2

    @property
    def num_directed(self) -> int:
        return sum(len(a) for a in self.directed_out)

    def serialize(self) -> str:
        """Render in the text file format (1-indexed, undirected edges with
        u<v); the rows are sorted, so the edges come out sorted."""
        return _serialize(self.n, self.undirected, self.directed_out)


def parse_graph(text: str | bytes) -> PartialGraph:
    """Parse the graph file format.

    Format: a header line ``n m_u m_d``, then ``m_u`` undirected edge lines
    ``u v`` and ``m_d`` directed edge lines ``u v``, all 1-indexed.  Lines
    whose first non-blank character is ``#`` and blank lines are ignored.
    A vertex may be written in any form :func:`int` reads (``7``, ``07``,
    ``+7``, ``٧``); all of them name one vertex, so an edge listed again in
    another spelling is still a duplicate.

    The first fault raises a :class:`ParseError` with its line: a missing or
    malformed header, then a number of edge lines other than ``m_u + m_d``,
    then the first faulty edge line.

    The edge lines are read once, first to last, and each is freed once
    read.  :func:`int` runs once per distinct vertex name, and the rows are
    gathered from the lines as they pass, sharing one int object per vertex.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = text.splitlines()
    for head_no, raw in enumerate(lines, 1):
        parts = raw.split()
        if parts and parts[0][0] != "#":
            break
    else:
        raise ParseError("missing header")
    if len(parts) != 3:
        raise ParseError("malformed header, expected 'n m_u m_d'", head_no)
    try:
        n, mu, md = map(int, parts)
    except ValueError:
        raise ParseError("malformed header, expected 'n m_u m_d'", head_no) from None
    if n < 0 or mu < 0 or md < 0:
        raise ParseError("malformed header, counts must be nonnegative", head_no)
    if n > sys.maxsize:  # no list can hold that many rows
        raise ParseError("malformed header, vertex count too large", head_no)

    # One pass over the edge lines, first to last: ``lines`` is reversed in
    # place and popped, so each line is freed once read and no copy of the
    # list is made.  The line count is checked before any edge line, so the
    # first faulty edge line is kept and raised at the end.
    #
    # ``names`` maps each name seen to its vertex (0-based), so int() and
    # the range check run once per distinct name.  It holds only names read,
    # so nothing of size n is built before the input passed.
    #
    # The pairs are gathered as read, and the rows built from them.  The int
    # keys (undirected lo*n+hi, directed tail*n+head) stay only to find a
    # duplicate or a pair listed as both kinds in one probe per line, which
    # the rows, unsorted until the end, cannot.
    total = mu + md
    und_keys: set[int] = set()
    dir_keys: set[int] = set()
    names: dict[str, int] = {}
    und_u: list[int] = []
    und_v: list[int] = []
    dir_u: list[int] = []
    dir_v: list[int] = []
    found = 0
    fault: tuple[str, int] | None = None
    end = len(lines)
    lines.reverse()
    del lines[end - head_no:]  # the header and the lines before it
    pop = lines.pop
    for no in range(head_no + 1, end + 1):
        parts = pop().split()
        if not parts or parts[0][0] == "#":
            continue
        if found == total:
            raise ParseError("unexpected extra line", no)
        found += 1
        if fault is not None:
            continue
        try:
            a, b = parts
            u = names[a]
            v = names[b]
        except (KeyError, ValueError):  # a name not seen yet, or not two names
            try:
                a, b = parts
                u = int(a) - 1
                v = int(b) - 1
            except ValueError:
                fault = ("malformed edge line, expected 'u v'", no)
                continue
            if not (0 <= u < n and 0 <= v < n):
                fault = (f"vertex index out of range 1..{n}", no)
                continue
            names[a] = u
            names[b] = v
        if u == v:
            fault = ("self-loop", no)
            continue
        if found <= mu:
            key = u * n + v if u < v else v * n + u
            if key in und_keys:
                fault = ("duplicate undirected edge", no)
                continue
            und_keys.add(key)
            und_u.append(u)
            und_v.append(v)
        else:
            key = u * n + v
            if key in dir_keys or v * n + u in dir_keys:
                fault = ("duplicate directed edge", no)
            elif (key if u < v else v * n + u) in und_keys:
                fault = ("edge listed as both directed and undirected", no)
            else:
                dir_keys.add(key)
                dir_u.append(u)
                dir_v.append(v)
    if found < total:
        raise ParseError(f"expected {total} edge lines, found {found}", head_no)
    if fault is not None:
        raise ParseError(*fault)

    # One int object per vertex, shared by all rows, whatever spellings
    # named it.  Made while the key sets still hold their blocks, the n ints
    # take fresh blocks side by side, not the gaps the freed keys would
    # leave: each draw copies the rows' ints into its DAG, and scattered
    # ints slowed the draws.
    vertex = list(range(n))
    del und_keys, dir_keys, names
    und: list[list[int]] = [[] for _ in vertex]
    out: list[list[int]] = [[] for _ in vertex]
    for u, v in zip(und_u, und_v):
        und[u].append(vertex[v])
        und[v].append(vertex[u])
    for u, v in zip(dir_u, dir_v):
        out[u].append(vertex[v])
    del und_u, und_v, dir_u, dir_v
    for row in und:
        row.sort()
    for row in out:
        row.sort()
    undirected = tuple(map(tuple, und))
    directed_out = tuple(map(tuple, out))
    return PartialGraph._unchecked(n, undirected, directed_out)


@dataclass(frozen=True, repr=False)
class Uccg:
    """Undirected connected chordal graph carrying global vertex labels.

    Local vertices are ``0..n-1``; ``labels[i]`` is the global id of local
    vertex ``i``, and labels are strictly increasing.  Instances are
    immutable.  ``adj`` holds sorted neighbor tuples; ``adj_masks``, the
    neighborhood bitmasks, are built on first use, as are the cliques of the
    chordality check's sweep.  Induced subgraphs are not built as graphs:
    they are vertex masks over ``0..n-1``, and ``adj_masks[v] & sub`` are
    the neighbors of ``v`` in subgraph ``sub``.
    """

    labels: tuple[int, ...]
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        """Stores both fields as tuples, then checks the labels increase,
        the rows through :class:`PartialGraph`, then that the graph is
        chordal, naming all its labels if not, and connected.  The cliques
        the chordality check found and ``adj_masks`` are kept."""
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "adj", tuple(map(tuple, self.adj)))
        if not _strictly_increasing(labels):
            raise ValueError("labels must be strictly increasing")
        PartialGraph(len(labels), self.adj, ((),) * len(labels))
        if not is_chordal(self):
            raise NotChordalError(labels)
        if -1 in self._cliques[1]:  # a further component's first clique attaches to none
            raise ValueError("graph not connected")

    @classmethod
    def _unchecked(cls, labels: Sequence[int], adj: Sequence[Sequence[int]]) -> "Uccg":
        """Build without validation, for a caller that checks the graph
        itself or needs one that is not connected chordal."""
        self = object.__new__(cls)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "adj", tuple(map(tuple, adj)))
        return self

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        """Neighborhood of every local vertex as a bitmask (bit ``w`` for
        neighbor ``w``)."""
        return adjacency_masks(self.adj)

    @cached_property
    def _orient_rows(self) -> tuple[bytes | itemgetter | None, ...]:
        """Per local vertex with two or more neighbours, what reads its
        row's flags off a not-placed table (a flag per local vertex), for
        :func:`orient_by_ordering`; ``None`` for a shorter row.  With at
        most 256 vertices it is the ``bytes`` of the row, whose
        ``translate`` reads a 256-byte table, and which the collector does
        not track; a larger graph gets the ``itemgetter`` of the row's
        entries.  Built by the first orientation and kept for later draws."""
        if self.n <= 256:
            return tuple(bytes(row) if len(row) > 1 else None for row in self.adj)
        return tuple(itemgetter(*row) if len(row) > 1 else None for row in self.adj)

    @cached_property
    def _cliques(self) -> tuple[list[int], list[int]] | None:
        """The maximal cliques of the whole graph's unseeded LBFS sweep and
        the clique each later one attaches to, as
        :func:`~mectools.chordal._cliques_of_sweep` finds them; ``None`` if
        the graph is not chordal.  Found by the chordality check and read by
        the unseeded clique tree of the whole graph."""
        return _cliques_of_sweep(self, lbfs(self))

    @classmethod
    def from_edges(
        cls,
        labels: Sequence[int],
        edges: Iterable[tuple[int, int]],
    ) -> "Uccg":
        """Build from local edge pairs over ``range(len(labels))``."""
        return cls(labels, _rows(len(labels), edges, True))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def as_partial_graph(self) -> PartialGraph:
        """View as a fully undirected PartialGraph on the local vertex space."""
        return PartialGraph._unchecked(self.n, self.adj, ((),) * self.n)

    def __repr__(self):
        return f"Uccg(n={self.n}, m={self.m}, labels={self.labels})"


def undirected_components(g: PartialGraph) -> list[Uccg]:
    """Split the undirected subgraph into connected components.

    Each component is validated to be chordal; isolated vertices (in the
    undirected subgraph) yield singleton components.  Components are returned
    in order of their smallest vertex.  ``g`` keeps them from its first
    split, with their rows, masks and cliques, for as long as it lives, for
    every later call, count and draw; each call returns a new list of them.
    A graph whose split raises keeps no component.

    ``g``'s own invariant makes every component's rows sorted,
    duplicate-free, symmetric, in range and loop-free (the constructor
    checks them, and the parser and :meth:`Uccg.as_partial_graph` build
    them so), and the search makes it connected; what is left to check, per
    component in order, is that it is chordal.
    """
    return list(g._components)


def _split(g: PartialGraph) -> tuple[Uccg, ...]:
    """The undirected components ``g`` keeps (see
    :func:`undirected_components`).  A component that is not chordal raises
    first; then a ``g`` that is not a CPDAG raises :class:`NotCpdagError`
    (see :func:`_require_cpdag`)."""
    comps = g._components
    _require_cpdag(g)
    return comps


def _require_cpdag(g: PartialGraph) -> None:
    """Raise :class:`NotCpdagError` unless ``g`` passes
    :attr:`PartialGraph.is_cpdag`, naming the first condition it fails: a
    directed edge on a partially directed cycle, an induced ``a -> b - c``,
    or a directed edge that is not strongly protected.  A graph that passes
    costs one cached lookup."""
    if g.is_cpdag:
        return
    if not g.is_chain_graph:
        raise NotCpdagError(
            "not a CPDAG: a directed edge lies on a partially directed cycle"
        )
    if not g.is_flag_free:
        raise NotCpdagError("not a CPDAG: an induced a -> b - c occurs")
    raise NotCpdagError("not a CPDAG: a directed edge is not strongly protected")


def _serialize(
    n: int, undirected: Sequence[Sequence[int]], directed_out: Sequence[Sequence[int]]
) -> str:
    """The text file format of the graph with these sorted rows: the header,
    then each undirected edge once from its lower end, then the directed
    edges.  Each row is written with one ``join`` over the vertex names."""
    names = list(map(str, range(1, n + 1)))
    name = names.__getitem__
    num_undirected = sum(map(len, undirected)) // 2
    lines = [f"{n} {num_undirected} {sum(map(len, directed_out))}"]
    for rows, upper in ((undirected, True), (directed_out, False)):
        for u, row in enumerate(rows):
            if upper:
                row = row[bisect_right(row, u):]
            if row:
                tail = names[u] + " "
                lines.append(tail + ("\n" + tail).join(map(name, row)))
    return "\n".join(lines) + "\n"


def _component_roots(und: Sequence[Sequence[int]]) -> list[int]:
    """The smallest vertex of every vertex's component in the undirected
    graph with neighbor rows ``und``, from one depth-first walk."""
    root = [-1] * len(und)
    for s in range(len(und)):
        if root[s] < 0:
            root[s] = s
            stack = [s]
            while stack:
                for v in und[stack.pop()]:
                    if root[v] < 0:
                        root[v] = s
                        stack.append(v)
    return root


def _is_acyclic(heads: Sequence[Sequence[int]]) -> bool:
    """True iff the digraph on ``range(len(heads))`` with head rows
    ``heads`` has no directed cycle, by Kahn's algorithm; a loop ``u -> u``
    keeps ``u`` from ever being ready."""
    indeg = [0] * len(heads)
    for row in heads:
        for v in row:
            indeg[v] += 1
    ready = [u for u, d in enumerate(indeg) if not d]
    for u in ready:  # the list grows as it is read
        for v in heads[u]:
            indeg[v] -= 1
            if not indeg[v]:
                ready.append(v)
    return len(ready) == len(heads)


def _rows(n: int, pairs: Iterable[tuple[int, int]], symmetric: bool) -> tuple[tuple[int, ...], ...]:
    """Sorted, duplicate-free neighbor rows over ``range(n)`` from the edge
    pairs ``u, v``: ``v`` joins row ``u``, and ``u`` row ``v`` when
    ``symmetric``.  An endpoint out of range raises ``ValueError``."""
    rows: list[set[int]] = [set() for _ in range(n)]
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("vertex out of range")
        rows[u].add(v)
        if symmetric:
            rows[v].add(u)
    return tuple(tuple(sorted(row)) for row in rows)


def _strictly_increasing(row: Sequence[int]) -> bool:
    return all(map(lt, row, row[1:]))


@dataclass(frozen=True)
class Dag:
    """A fully directed acyclic graph; ``out_edges[u]`` are the heads of ``u``."""

    n: int
    out_edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.out_edges) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        for u, row in enumerate(self.out_edges):
            prev = -1
            for v in row:
                if v <= prev:
                    raise ValueError("head lists must be sorted and duplicate-free")
                prev = v
                if v == u or not 0 <= v < self.n:
                    raise ValueError("invalid edge")
        if not _is_acyclic(self.out_edges):
            raise ValueError("graph contains a directed cycle")

    @classmethod
    def _trusted(cls, n, out_edges) -> "Dag":
        """Build without :meth:`__post_init__`, for head lists the library
        oriented from a chain graph by a permutation: sorted, in range and
        acyclic by construction."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "out_edges", out_edges)
        return self

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Dag":
        return cls(n, _rows(n, edges, False))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.out_edges[u]:
                yield (u, v)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges())

    def skeleton(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) if u < v else (v, u) for u, v in self.edges())

    def serialize(self) -> str:
        return _serialize(self.n, ((),) * self.n, self.out_edges)


def orient_by_ordering(
    g: PartialGraph, comps: Sequence[Uccg], orders: Sequence[Sequence[int]]
) -> Dag:
    """Keep ``g``'s directed edges and point every undirected edge from the
    earlier to the later end of its component's ordering.

    ``comps`` are ``g``'s undirected components, as
    :func:`undirected_components` gives them (in any order), and
    ``orders[i]`` orders the local vertices of ``comps[i]``.  Each must be a
    permutation of them, and the components must be all of ``g``'s, once
    each.  Both are checked, each ordering in the one walk over it, which
    marks each vertex placed in a table of its component's own, made for
    this call, and keeps the neighbours not placed yet:
    :attr:`Uccg._orient_rows` reads the flags of a row of two or more off
    the table in C, and :func:`itertools.compress` picks those neighbours
    from ``g``'s row.  On a chain graph every such orientation is acyclic,
    so its :class:`Dag` is built without the acyclicity check; any other
    ``g`` goes through :class:`Dag`'s own check.
    """
    n = g.n
    # each is one of g's components, which share no vertex: distinct first
    # vertices and n vertices in all make them every component, once each
    if (
        len(orders) != len(comps)
        or sum(len(c.labels) for c in comps) != n
        or len({c.labels[:1] for c in comps}) != len(comps)
    ):
        raise ValueError("the orderings are not a permutation of all the vertices")
    und = g.undirected
    heads = list(g.directed_out)
    for comp, order in zip(comps, orders):
        labels = comp.labels
        k = len(labels)
        if len(order) != k:
            raise ValueError("an ordering is not a permutation of its component's vertices")
        rows = comp._orient_rows
        adj = comp.adj
        small = k <= 256
        # translate reads a table of 256 entries
        free = bytearray(b"\x01") * (256 if small else k)
        for v in order:
            if not 0 <= v < k or not free[v]:
                raise ValueError("an ordering is not a permutation of its component's vertices")
            free[v] = 0
            u = labels[v]
            row = rows[v]
            if row is not None:
                later = tuple(compress(und[u], row.translate(free) if small else row(free)))
                if not later:
                    continue
            else:
                later = und[u]
                if not (later and free[adj[v][0]]):
                    continue
            head = heads[u]
            heads[u] = tuple(sorted(head + later)) if head else later
    if g.is_chain_graph:
        return Dag._trusted(n, tuple(heads))
    return Dag(n, tuple(heads))
