"""Partially directed graphs, their undirected chordal components, and file I/O.

Vertices of a :class:`PartialGraph` are 0-indexed internally; the text file
format is 1-indexed.  A :class:`Uccg` keeps a strictly increasing tuple of
*global* vertex labels next to its local adjacency, so the sorted label tuple
of any induced subgraph is a stable identity usable as a memoization key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ._partition import adjacency_masks, mask_bits, vertex_mask


class ParseError(ValueError):
    """Input text does not conform to the graph file format."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class NotChordalError(ValueError):
    """An undirected component that has to be chordal is not."""

    def __init__(self, labels: Iterable[int] = ()):
        self.labels = tuple(labels)
        msg = "graph is not chordal"
        if self.labels:
            msg += f" (component {list(self.labels)})"
        super().__init__(msg)


@dataclass(frozen=True)
class PartialGraph:
    """A graph with undirected and directed edges (e.g. a CPDAG).

    ``undirected[u]`` is the sorted tuple of undirected neighbors of ``u``;
    ``directed_out[u]`` the sorted tuple of heads of edges ``u -> v``.  A
    vertex pair carries at most one edge overall.
    """

    n: int
    undirected: tuple[tuple[int, ...], ...]
    directed_out: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.undirected) != self.n or len(self.directed_out) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        seen: set[tuple[int, int]] = set()
        for u in range(self.n):
            for v in self.undirected[u]:
                if v == u:
                    raise ValueError("self-loop")
                if not 0 <= v < self.n:
                    raise ValueError("vertex out of range")
                if u not in self.undirected[v]:
                    raise ValueError("undirected adjacency not symmetric")
                if u < v:
                    seen.add((u, v))
        for u in range(self.n):
            for v in self.directed_out[u]:
                if v == u:
                    raise ValueError("self-loop")
                if not 0 <= v < self.n:
                    raise ValueError("vertex out of range")
                pair = (u, v) if u < v else (v, u)
                if pair in seen:
                    raise ValueError("vertex pair carries more than one edge")
                seen.add(pair)

    @classmethod
    def from_edges(
        cls,
        n: int,
        undirected_edges: Iterable[tuple[int, int]] = (),
        directed_edges: Iterable[tuple[int, int]] = (),
    ) -> "PartialGraph":
        und: list[set[int]] = [set() for _ in range(n)]
        out: list[set[int]] = [set() for _ in range(n)]
        for u, v in undirected_edges:
            und[u].add(v)
            und[v].add(u)
        for u, v in directed_edges:
            out[u].add(v)
        return cls(
            n,
            tuple(tuple(sorted(s)) for s in und),
            tuple(tuple(sorted(s)) for s in out),
        )

    def undirected_edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.undirected[u]:
                if u < v:
                    yield (u, v)

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
        """Render in the text file format (1-indexed, undirected edges with u<v)."""
        lines = [f"{self.n} {self.num_undirected} {self.num_directed}"]
        for u, v in sorted(self.undirected_edges()):
            lines.append(f"{u + 1} {v + 1}")
        for u, v in sorted(self.directed_edges()):
            lines.append(f"{u + 1} {v + 1}")
        return "\n".join(lines) + "\n"


def parse_graph(text: str | bytes) -> PartialGraph:
    """Parse the graph file format.

    Format: a header line ``n m_u m_d``, then ``m_u`` undirected edge lines
    ``u v`` and ``m_d`` directed edge lines ``u v``, all 1-indexed.  Lines
    starting with ``#`` and blank lines are ignored.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    rows: list[tuple[int, str]] = []
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((no, line))
    if not rows:
        raise ParseError("missing header")
    no, header = rows[0]
    parts = header.split()
    if len(parts) != 3:
        raise ParseError("malformed header, expected 'n m_u m_d'", no)
    try:
        n, mu, md = (int(p) for p in parts)
    except ValueError:
        raise ParseError("malformed header, expected 'n m_u m_d'", no) from None
    if n < 0 or mu < 0 or md < 0:
        raise ParseError("malformed header, counts must be nonnegative", no)
    if len(rows) - 1 != mu + md:
        if len(rows) - 1 < mu + md:
            raise ParseError(f"expected {mu + md} edge lines, found {len(rows) - 1}", no)
        raise ParseError("unexpected extra line", rows[1 + mu + md][0])

    und: list[tuple[int, int]] = []
    dire: list[tuple[int, int]] = []
    seen_und: set[tuple[int, int]] = set()
    seen_dir: set[tuple[int, int]] = set()
    for idx, (no, line) in enumerate(rows[1:]):
        parts = line.split()
        try:
            u, v = (int(p) for p in parts)
        except ValueError:
            raise ParseError("malformed edge line, expected 'u v'", no) from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"vertex index out of range 1..{n}", no)
        if u == v:
            raise ParseError("self-loop", no)
        u -= 1
        v -= 1
        pair = (u, v) if u < v else (v, u)
        if idx < mu:
            if pair in seen_und:
                raise ParseError("duplicate undirected edge", no)
            if pair in seen_dir:
                raise ParseError("edge listed as both directed and undirected", no)
            seen_und.add(pair)
            und.append(pair)
        else:
            if pair in seen_dir:
                raise ParseError("duplicate directed edge", no)
            if pair in seen_und:
                raise ParseError("edge listed as both directed and undirected", no)
            seen_dir.add(pair)
            dire.append((u, v))
    return PartialGraph.from_edges(n, und, dire)


class Uccg:
    """Undirected connected chordal graph carrying global vertex labels.

    Local vertices are ``0..n-1``; ``labels[i]`` is the global id of local
    vertex ``i``.  Labels are strictly increasing, making ``labels`` a
    canonical key for the induced subgraph.  Instances are immutable.

    ``adj`` (sorted neighbor tuples) and ``adj_masks`` (neighborhood
    bitmasks) are built at most once, on first use: an induced subgraph made
    by :meth:`_induced` keeps only its key and a view of its parent until
    then, so a subgraph that is only looked up by key never builds either.
    """

    __slots__ = ("labels", "_adj", "_masks", "_local", "_source")

    def __init__(
        self,
        labels: Sequence[int],
        adj: Sequence[Sequence[int]],
        validate: bool = True,
    ):
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "_adj", tuple(tuple(a) for a in adj))
        object.__setattr__(self, "_masks", None)
        object.__setattr__(self, "_local", None)
        object.__setattr__(self, "_source", None)
        if validate:
            self._validate()

    @classmethod
    def _induced(cls, parent: "Uccg", sub: int) -> "Uccg":
        """Subgraph of ``parent`` induced on the local vertex bitmask ``sub``,
        which the caller guarantees to be connected (and hence chordal)."""
        verts = mask_bits(sub)
        self = object.__new__(cls)
        setter = object.__setattr__
        setter(self, "labels", tuple(map(parent.labels.__getitem__, verts)))
        setter(self, "_adj", None)
        setter(self, "_masks", None)
        setter(self, "_local", None)
        setter(self, "_source", (parent.adj_masks, verts, sub))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Uccg is immutable")

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        adj = self._adj
        if adj is None:
            parent_masks, verts, sub = self._source
            local = {v: i for i, v in enumerate(verts)}
            adj = tuple(
                tuple(local[w] for w in mask_bits(parent_masks[v] & sub))
                for v in verts
            )
            object.__setattr__(self, "_adj", adj)
            object.__setattr__(self, "_source", None)
        return adj

    @property
    def adj_masks(self) -> tuple[int, ...]:
        """Neighborhood of every local vertex as a bitmask (bit ``w`` for
        neighbor ``w``)."""
        masks = self._masks
        if masks is None:
            masks = adjacency_masks(self.adj)
            object.__setattr__(self, "_masks", masks)
        return masks

    def _is_complete(self) -> bool:
        """True iff every two vertices are adjacent; builds no adjacency."""
        k = len(self.labels) - 1
        if self._source is not None:
            parent_masks, verts, sub = self._source
            return all((parent_masks[v] & sub).bit_count() == k for v in verts)
        return all(len(row) == k for row in self._adj)

    @classmethod
    def from_edges(
        cls,
        labels: Sequence[int],
        edges: Iterable[tuple[int, int]],
        validate: bool = True,
    ) -> "Uccg":
        """Build from local edge pairs over ``range(len(labels))``."""
        nbr: list[set[int]] = [set() for _ in labels]
        for u, v in edges:
            nbr[u].add(v)
            nbr[v].add(u)
        return cls(labels, [sorted(s) for s in nbr], validate=validate)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    @property
    def key(self) -> tuple[int, ...]:
        return self.labels

    def local_of(self, label: int) -> int:
        lookup = self._local
        if lookup is None:
            lookup = {lab: i for i, lab in enumerate(self.labels)}
            object.__setattr__(self, "_local", lookup)
        return lookup[label]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def as_partial_graph(self) -> PartialGraph:
        """View as a fully undirected PartialGraph on the local vertex space."""
        return PartialGraph(self.n, self.adj, tuple(() for _ in range(self.n)))

    def _validate(self):
        n = self.n
        if len(self.adj) != n:
            raise ValueError("adjacency length does not match label count")
        for i in range(1, n):
            if self.labels[i - 1] >= self.labels[i]:
                raise ValueError("labels must be strictly increasing")
        nbr_sets = []
        for u, row in enumerate(self.adj):
            prev = -1
            for v in row:
                if v <= prev:
                    raise ValueError("neighbor lists must be sorted and duplicate-free")
                prev = v
                if v == u:
                    raise ValueError("self-loop")
                if not 0 <= v < n:
                    raise ValueError("vertex out of range")
            nbr_sets.append(set(row))
        for u in range(n):
            for v in self.adj[u]:
                if u not in nbr_sets[v]:
                    raise ValueError("adjacency not symmetric")
        if n and not _connected(self.adj, range(n)):
            raise ValueError("graph not connected")
        from .chordal import is_chordal

        if not is_chordal(self):
            raise NotChordalError(self.labels)

    def __eq__(self, other):
        return (
            isinstance(other, Uccg)
            and self.labels == other.labels
            and self.adj == other.adj
        )

    def __hash__(self):
        return hash((self.labels, self.adj))

    def __repr__(self):
        return f"Uccg(n={self.n}, m={self.m}, labels={self.labels})"


def _connected(adj: Sequence[Sequence[int]], verts: Iterable[int]) -> bool:
    verts = list(verts)
    if not verts:
        return True
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return all(v in seen for v in verts)


def undirected_components(g: PartialGraph) -> list[Uccg]:
    """Split the undirected subgraph into connected components.

    Each component is validated to be chordal; isolated vertices (in the
    undirected subgraph) yield singleton components.  Components are returned
    in order of their smallest vertex.
    """
    seen = bytearray(g.n)
    out: list[Uccg] = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = 1
        stack = [s]
        while stack:
            u = stack.pop()
            for v in g.undirected[u]:
                if not seen[v]:
                    seen[v] = 1
                    comp.append(v)
                    stack.append(v)
        comp.sort()
        local = {v: i for i, v in enumerate(comp)}
        adj = [[local[w] for w in g.undirected[v]] for v in comp]
        out.append(Uccg(comp, adj, validate=True))
    return out


def induced_subgraph(g: Uccg, vs: Iterable[int]) -> Uccg:
    """Induced subgraph of ``g`` on the global labels ``vs``.

    The caller guarantees the result is connected; this is asserted in debug
    runs only.
    """
    out = Uccg._induced(g, vertex_mask({g.local_of(lab) for lab in vs}))
    assert _connected(out.adj, range(out.n)), "induced subgraph must be connected"
    return out


@dataclass(frozen=True)
class Dag:
    """A fully directed acyclic graph; ``out_edges[u]`` are the heads of ``u``."""

    n: int
    out_edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.out_edges) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        indeg = [0] * self.n
        for u in range(self.n):
            prev = -1
            for v in self.out_edges[u]:
                if v <= prev:
                    raise ValueError("head lists must be sorted and duplicate-free")
                prev = v
                if v == u or not 0 <= v < self.n:
                    raise ValueError("invalid edge")
                indeg[v] += 1
        queue = [u for u in range(self.n) if indeg[u] == 0]
        visited = 0
        while queue:
            u = queue.pop()
            visited += 1
            for v in self.out_edges[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if visited != self.n:
            raise ValueError("graph contains a directed cycle")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Dag":
        out: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            out[u].add(v)
        return cls(n, tuple(tuple(sorted(s)) for s in out))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.out_edges[u]:
                yield (u, v)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges())

    def skeleton(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) if u < v else (v, u) for u, v in self.edges())

    def in_neighbors(self) -> list[list[int]]:
        parents: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges():
            parents[v].append(u)
        return parents

    def serialize(self) -> str:
        lines = [f"{self.n} 0 {sum(len(a) for a in self.out_edges)}"]
        for u, v in sorted(self.edges()):
            lines.append(f"{u + 1} {v + 1}")
        return "\n".join(lines) + "\n"


def orient_by_ordering(g: Uccg, tau: Sequence[int]) -> Dag:
    """Orient every edge of ``g`` from the earlier to the later vertex of ``tau``.

    ``tau`` must be a permutation of the local vertices.  The result is
    acyclic by construction and has the same skeleton as ``g``.
    """
    if sorted(tau) != list(range(g.n)):
        raise ValueError("tau is not a permutation of the vertices")
    pos = [0] * g.n
    for i, v in enumerate(tau):
        pos[v] = i
    out = []
    for u in range(g.n):
        out.append(tuple(v for v in g.adj[u] if pos[u] < pos[v]))
    return Dag(g.n, tuple(out))
