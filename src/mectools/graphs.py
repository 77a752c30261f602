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
from itertools import combinations, compress, islice
from operator import itemgetter, lt
from typing import Iterable, Iterator, Sequence

from ._partition import adjacency_masks
from .chordal import NotChordalError, is_chordal


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
        root = _component_roots(self.undirected)
        # an arrow between components joins their smallest vertices; one
        # inside a component is a loop
        heads: list[list[int]] = [[] for _ in out]
        for u, row in enumerate(out):
            if row:
                heads[root[u]] += map(root.__getitem__, row)
        return _is_acyclic(heads)

    @cached_property
    def _gathers(self) -> tuple[itemgetter | None, ...]:
        """Per vertex with two or more undirected neighbours, the
        ``itemgetter`` of their entries: applied to a flag per vertex it
        gives the row's flags, for :func:`itertools.compress`.  ``None`` for
        a shorter row.  Built by :func:`orient_by_ordering` on its first
        call and kept for the graph's later draws."""
        return tuple(itemgetter(*row) if len(row) > 1 else None for row in self.undirected)

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

    The first fault raises a :class:`ParseError` with its line: a missing or
    malformed header, then a number of edge lines other than ``m_u + m_d``,
    then the first faulty edge line.
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

    # one pass over the edge lines; the line count is checked before any
    # edge line, so the first faulty edge line is kept and raised at the end.
    # The pairs read are int keys (0-based): undirected as lo*n+hi, directed
    # as tail*n+head.  Nothing of size n is built before the input passed.
    total = mu + md
    und_keys: set[int] = set()
    dir_keys: set[int] = set()
    found = 0
    fault: tuple[str, int] | None = None
    for no, raw in enumerate(islice(lines, head_no, None), head_no + 1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if found == total:
            raise ParseError("unexpected extra line", no)
        found += 1
        if fault is not None:
            continue
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
        if u == v:
            fault = ("self-loop", no)
            continue
        if found <= mu:
            key = u * n + v if u < v else v * n + u
            if key in und_keys:
                fault = ("duplicate undirected edge", no)
                continue
            und_keys.add(key)
        else:
            key = u * n + v
            if key in dir_keys or v * n + u in dir_keys:
                fault = ("duplicate directed edge", no)
            elif (key if u < v else v * n + u) in und_keys:
                fault = ("edge listed as both directed and undirected", no)
            else:
                dir_keys.add(key)
    if found < total:
        raise ParseError(f"expected {total} edge lines, found {found}", head_no)
    if fault is not None:
        raise ParseError(*fault)

    del lines
    vertex = list(range(n))  # one int object per vertex, shared by all rows
    und: list[list[int]] = [[] for _ in vertex]
    out: list[list[int]] = [[] for _ in vertex]
    for key in und_keys:
        u, v = divmod(key, n)
        und[u].append(vertex[v])
        und[v].append(vertex[u])
    for key in dir_keys:
        u, v = divmod(key, n)
        out[u].append(vertex[v])
    del und_keys, dir_keys  # freed before the rows are copied into tuples
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
    neighborhood bitmasks, are built on first use, as are unseeded LBFS
    orders, one per vertex mask swept.  Induced subgraphs are
    not built as graphs: they are vertex masks over ``0..n-1``, and
    ``adj_masks[v] & sub`` are the neighbors of ``v`` in subgraph ``sub``.
    """

    labels: tuple[int, ...]
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        """Stores both fields as tuples, then checks the labels increase,
        the rows through :class:`PartialGraph`, then that the graph is
        chordal, naming all its labels if not, and connected.  The
        chordality check's sweep and ``adj_masks`` are kept."""
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "adj", tuple(map(tuple, self.adj)))
        if not _strictly_increasing(labels):
            raise ValueError("labels must be strictly increasing")
        PartialGraph(len(labels), self.adj, ((),) * len(labels))
        if not is_chordal(self):
            raise NotChordalError(labels)
        if any(_component_roots(self.adj)):  # a vertex outside vertex 0's component
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
    def _sweeps(self) -> dict[int, tuple[int, ...]]:
        """Unseeded LBFS orders by vertex mask, kept by
        :func:`~mectools.chordal.lbfs`."""
        return {}

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
    in order of their smallest vertex.

    ``g``'s own invariant makes every component's rows sorted,
    duplicate-free, symmetric, in range and loop-free (the constructor
    checks them, and the parser and :meth:`Uccg.as_partial_graph` build
    them so), and the search makes it connected; what is left to check, per
    component in order, is that it is chordal.
    """
    und = g.undirected
    members: dict[int, list[int]] = {}  # smallest vertex -> the component
    for v, s in enumerate(_component_roots(und)):
        if s == v:
            members[v] = [v]
        else:
            members[s].append(v)
    local = [0] * g.n  # global -> local index within the current component
    out: list[Uccg] = []
    for comp in members.values():
        for i, v in enumerate(comp):
            local[v] = i
        to_local = local.__getitem__
        c = Uccg._unchecked(comp, tuple(tuple(map(to_local, und[v])) for v in comp))
        if not is_chordal(c):
            raise NotChordalError(comp)
        out.append(c)
    return out


def _split(g: PartialGraph) -> list[Uccg]:
    """The undirected components of a CPDAG ``g``.  A component that is not
    chordal raises first; then a ``g`` that is not a CPDAG raises
    :class:`NotCpdagError` (see :func:`_require_cpdag`)."""
    comps = undirected_components(g)
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


def _are_components_of(g: PartialGraph, comps: Sequence[Uccg]) -> bool:
    """True iff ``comps`` are exactly the undirected components of ``g`` in
    the order :func:`undirected_components` gives: every vertex covered once,
    each component's rows equal to ``g``'s rows, first labels increasing."""
    und = g.undirected
    seen = bytearray(g.n)
    last = -1
    for comp in comps:
        labels = comp.labels
        if not labels or labels[0] <= last or labels[-1] >= g.n:
            return False
        last = labels[0]
        for u, row in zip(labels, comp.adj):
            if seen[u] or und[u] != tuple(map(labels.__getitem__, row)):
                return False
            seen[u] = 1
    return all(seen)


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


def orient_by_ordering(g: PartialGraph, tau: Sequence[int]) -> Dag:
    """Keep ``g``'s directed edges and point every undirected edge from the
    earlier to the later end of ``tau``.

    ``tau`` must be a permutation of all of ``g``'s vertices; that is checked
    in the one walk over it, which marks each vertex placed and gives it the
    neighbours not placed yet.  A row of two or more neighbours is filtered
    in C, by the row's gather of the free flags (:attr:`PartialGraph._gathers`,
    built on the graph's first orientation and kept on it).  On a chain graph
    every such orientation is acyclic, so its :class:`Dag` is built without
    the acyclicity check; any other ``g`` goes through :class:`Dag`'s own
    check.
    """
    n = g.n
    if len(tau) != n:
        raise ValueError("tau is not a permutation of the vertices")
    und = g.undirected
    gathers = g._gathers
    heads = list(g.directed_out)
    free = bytearray(b"\x01") * n
    for v in tau:
        if not 0 <= v < n or not free[v]:
            raise ValueError("tau is not a permutation of the vertices")
        free[v] = 0
        gather = gathers[v]
        if gather is not None:
            later = tuple(compress(und[v], gather(free)))
            if not later:
                continue
        else:
            later = und[v]
            if not (later and free[later[0]]):
                continue
        head = heads[v]
        heads[v] = tuple(sorted(head + later)) if head else later
    if g.is_chain_graph:
        return Dag._trusted(n, tuple(heads))
    return Dag(n, tuple(heads))
