"""Shared fixtures: small named graphs, random corpora, and brute-force checks."""

from __future__ import annotations

import bisect
import itertools
import math
import random
import sys
from fractions import Fraction
from typing import Sequence

from hypothesis import strategies as st

from mectools import (
    Dag,
    NotChordalError,
    ParseError,
    PartialGraph,
    Uccg,
    enumerate_amos,
    v_structures,
)
from mectools._partition import mask_bits
from mectools.chordal import CliqueTree, clique_tree
from mectools.counting import CliqueRecord, explore, factorial, fp_chains
from mectools.generators import gen_interval, gen_peo, gen_subtree, gen_thicken
from mectools.graphs import orient_by_ordering
from mectools.oracle import TooLargeError
from mectools.sampling import SamplerModel, _draw_order, precount
from mectools.subproblems import components_by_traversal


def vertex_mask(vertices) -> int:
    """Bitmask of a collection of distinct vertex ids."""
    return sum(1 << v for v in vertices)


def record_vertices(record) -> tuple[list[int], list[list[int]]]:
    """A clique record's clique and chain masks as increasing vertex lists,
    the inputs of the list-based oracles."""
    return mask_bits(record.clique), [mask_bits(x) for x in record.chain]


def path_graph(n: int) -> Uccg:
    return Uccg.from_edges(range(n), [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Uccg:
    return Uccg.from_edges(range(n), itertools.combinations(range(n), 2))


def undirected_pairs(g: PartialGraph) -> list[tuple[int, int]]:
    """The undirected edges ``(u, v)``, ``u < v``, of ``g`` in sorted order."""
    return [(u, v) for u, row in enumerate(g.undirected) for v in row if u < v]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def unchecked_uccg(n: int, edges) -> Uccg:
    """A Uccg on labels ``0..n-1`` that skips validation, so it may be
    disconnected or not chordal."""
    nbr: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbr[u].add(v)
        nbr[v].add(u)
    return Uccg._unchecked(range(n), [sorted(s) for s in nbr])


def three_clique_chain() -> Uccg:
    """Six vertices, maximal cliques {0,1,2}, {1,2,3,4}, {1,2,4,5}.

    Its 54 orientations and per-clique permutation counts (6, 20, 16) are
    verified against the brute-force oracles in the tests that use it.
    """
    return Uccg.from_edges(
        range(6),
        [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (4, 5)],
    )


def clique_chain_7() -> Uccg:
    """Seven vertices: K4 {0..3}, K4 {2,3,4,5}, triangle {4,5,6} chained."""
    return Uccg.from_edges(
        range(7),
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)],
    )


def diamond_with_chord() -> Uccg:
    """Four vertices: 4-cycle 0-1-3-2-0 plus the chord 1-2."""
    return Uccg.from_edges(range(4), [(0, 1), (1, 3), (2, 3), (0, 2), (1, 2)])


_CORPUS_MODELS = (
    ("peo", lambda n: 1),
    ("subtree", lambda n: max(2, round(math.log2(n)))),
    ("thicken", lambda n: 1),
    ("interval", lambda n: 0),
    ("peo", lambda n: 2),
    ("thicken", lambda n: 2),
)


@st.composite
def chordal_graphs(draw):
    """A connected chordal graph on shuffled vertex ids: each vertex joins an
    earlier vertex ``j`` and some of ``j``'s own earlier neighbours, which
    form a clique with ``j``."""
    n = draw(st.integers(1, 12))
    ids = draw(st.permutations(range(n)))
    earlier: list[tuple[int, ...]] = [()]
    edges = []
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        keep = draw(st.lists(st.booleans(), min_size=len(earlier[j]), max_size=len(earlier[j])))
        nbrs = (j,) + tuple(w for w, k in zip(earlier[j], keep) if k)
        earlier.append(nbrs)
        edges += [(ids[w], ids[i]) for w in nbrs]
    return Uccg.from_edges(range(n), edges)


def _generate(model: str, n: int, k: int, seed: int) -> Uccg:
    if model == "subtree":
        return gen_subtree(n, k, seed)
    if model == "interval":
        return gen_interval(n, seed)
    if model == "peo":
        return gen_peo(n, k, seed)
    if model == "thicken":
        return gen_thicken(n, k, seed)
    raise ValueError(model)


def random_chordal_corpus(
    count: int,
    n_lo: int,
    n_hi: int,
    seed: int,
    max_edges: int | None = None,
    max_clique: int | None = None,
) -> list[Uccg]:
    """Mixed-generator corpus of connected chordal graphs, deterministic in
    ``seed``.  Optional caps keep instances inside brute-force oracle limits."""
    rng = random.Random(seed)
    out: list[Uccg] = []
    attempt = 0
    while len(out) < count:
        model, k_of = _CORPUS_MODELS[attempt % len(_CORPUS_MODELS)]
        n = rng.randint(n_lo, n_hi)
        g = _generate(model, n, k_of(n), seed * 100003 + attempt)
        attempt += 1
        if max_edges is not None and g.m > max_edges:
            continue
        if max_clique is not None:
            t = clique_tree(g)
            if max(c.bit_count() for c in t.cliques) > max_clique:
                continue
        out.append(g)
    return out


def oracle_corpus():
    """The fixed graphs and the small random chordal corpora that the
    explored inputs are checked on."""
    yield three_clique_chain()
    yield clique_chain_7()
    yield diamond_with_chord()
    yield path_graph(6)
    yield complete_graph(5)
    yield from random_chordal_corpus(30, 2, 8, seed=71, max_edges=14)
    yield from random_chordal_corpus(12, 3, 24, seed=79)


def clique_tuples(t: CliqueTree) -> list[tuple[int, ...]]:
    """The tree's cliques as sorted local vertex tuples, in clique order."""
    return [tuple(mask_bits(c)) for c in t.cliques]


def minimal_separators(t: CliqueTree) -> list[tuple[int, ...]]:
    """The per-edge clique intersections of the tree, as sorted local vertex
    tuples.

    Returned as a multiset (one entry per tree edge); the deduplicated set is
    exactly the set of minimal separators of the underlying graph.
    """
    return [tuple(mask_bits(sep)) for sep in t.separators if sep is not None]


def brute_minimal_separators(g: Uccg) -> set[frozenset[int]]:
    """All inclusion-minimal a-b separators, by exhaustion (local ids, n <= 8)."""
    n = g.n
    adj = [set(a) for a in g.adj]

    def separates(blocked: frozenset[int], a: int, b: int) -> bool:
        stack, seen = [a], {a}
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w == b:
                    return False
                if w not in blocked and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return True

    out: set[frozenset[int]] = set()
    for a, b in itertools.combinations(range(n), 2):
        if b in adj[a]:
            continue
        rest = [v for v in range(n) if v != a and v != b]
        for r in range(len(rest) + 1):
            for sub in itertools.combinations(rest, r):
                s = frozenset(sub)
                if not separates(s, a, b):
                    continue
                if all(not separates(s - {w}, a, b) for w in s):
                    out.add(s)
    return out


def brute_maximal_cliques(g: Uccg) -> set[frozenset[int]]:
    n = g.n
    adj = [set(a) for a in g.adj]
    cliques = [
        frozenset(sub)
        for r in range(1, n + 1)
        for sub in itertools.combinations(range(n), r)
        if all(b in adj[a] for a, b in itertools.combinations(sub, 2))
    ]
    return {c for c in cliques if not any(c < d for d in cliques)}


def union_components_oracle(g: Uccg, clique: list[int]) -> set[tuple[int, ...]]:
    """Definition-level computation of the components left undirected after a
    clique prefix: union all enumerated orientations that admit an ordering
    starting with the clique, and split what stays bidirected."""
    kset = set(clique)
    directions: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for dag in enumerate_amos(g):
        if any(v in kset and u not in kset for u, v in dag.edges()):
            continue
        for u, v in dag.edges():
            pair = (u, v) if u < v else (v, u)
            directions.setdefault(pair, set()).add((u, v))
    undirected = {p for p, ds in directions.items() if len(ds) == 2}
    rest = [v for v in range(g.n) if v not in kset]
    nbr: dict[int, set[int]] = {v: set() for v in rest}
    for a, b in undirected:
        if a in nbr and b in nbr:
            nbr[a].add(b)
            nbr[b].add(a)
    comps: set[tuple[int, ...]] = set()
    seen: set[int] = set()
    for s in rest:
        if s in seen:
            continue
        comp, stack = {s}, [s]
        seen.add(s)
        while stack:
            u = stack.pop()
            for w in nbr[u]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.add(tuple(sorted(g.labels[v] for v in comp)))
    return comps


class SetTooLargeError(ValueError):
    """The ground set exceeds the enumeration limit."""


def phi_naive(s, collection) -> int:
    """Count permutations of ``s`` avoiding every set in ``collection`` as a
    prefix, by direct enumeration.  Oracle-grade: limited to |s| <= 10."""
    items = sorted(set(s))
    n = len(items)
    if n > 10:
        raise SetTooLargeError("naive enumeration is limited to 10 elements")
    ground = frozenset(items)
    by_len: dict[int, set[frozenset]] = {}
    for r in collection:
        fr = frozenset(r)
        if not fr <= ground:
            continue
        by_len.setdefault(len(fr), set()).add(fr)
    if 0 in by_len:
        return 0
    if not by_len:
        return factorial(n)
    max_len = max(by_len)
    count = 0
    for perm in itertools.permutations(items):
        prefix: set[int] = set()
        ok = True
        for i in range(max_len):
            prefix.add(perm[i])
            group = by_len.get(i + 1)
            if group is not None and frozenset(prefix) in group:
                ok = False
                break
        if ok:
            count += 1
    return count


def count_by_separator_formula(g: Uccg) -> int:
    """Sum over minimal separators and maximal cliques of the number of
    orderings starting there, with naive prefix-avoidance counts."""
    t = clique_tree(g)
    cliques = set(t.cliques)
    seps = {s for s in t.separators if s is not None}
    total = 0
    for s in cliques | seps:
        forbidden = [set(mask_bits(x)) for x in seps if x & s == x != s]
        prod = 1
        for h in components_by_traversal(g, s):
            prod *= precount(induced_subgraph(g, labels_of(g, h))).total
        total += phi_naive(mask_bits(s), forbidden) * prod
    return total


# --- checks of data the library builds for its internal steps -------------
#
# ``components_by_traversal``, ``draw_perm`` and ``refine_traversal`` trust
# their input: every caller in the library builds it correctly.  These
# checks are the oracles the tests hold that input to.


class NotCliqueError(ValueError):
    """The supplied vertex set is not a clique of the graph."""


def check_clique(g: Uccg, verts: Sequence[int]) -> int:
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


class ChainNotNestedError(ValueError):
    """Chain elements are not strictly nested."""


class ChainElementNotProperSubsetError(ValueError):
    """A chain element is not a proper subset of the ground set."""


def validate_chain(ground: frozenset, sets) -> list[frozenset]:
    """The chain as frozensets after checking that it is strictly nested and
    that every element is a proper subset of ``ground``."""
    chain = [frozenset(s) for s in sets]
    prev: frozenset | None = None
    for x in chain:
        if prev is not None and not prev < x:
            raise ChainNotNestedError("chain elements must be strictly nested")
        if not x < ground:
            raise ChainElementNotProperSubsetError(
                "chain elements must be proper subsets of the ground set"
            )
        prev = x
    return chain


def phi_sizes(total: int, sizes: Sequence[int]) -> int:
    """Permutations of a ``total``-set avoiding a nested chain of prefix
    sets, by the peel-off recurrence on the chain sizes, quadratically many
    big-integer operations; the reference for the library's closed form
    over :func:`mectools.counting._chain_weights`.

    Only the chain sizes matter once strict nesting holds; no size exceeds
    ``total``.  A size <= 0 means an empty forbidden prefix, which every
    permutation has, so 0 is returned.
    """
    if sizes and sizes[0] <= 0:
        return 0
    # sub[i]: the orders of the i-th set with no earlier set as a prefix
    sub: list[int] = []
    for i, s in enumerate(sizes):
        val = factorial(s)
        for j in range(i):
            val -= factorial(s - sizes[j]) * sub[j]
        sub.append(val)
    result = factorial(total)
    for i, s in enumerate(sizes):
        result -= factorial(total - s) * sub[i]
    return result


def phi_chain(s, chain) -> int:
    """Number of permutations of ``s`` with no chain element as a prefix.

    Requires the chain to be strictly nested; evaluated by :func:`phi_sizes`.
    """
    ground = frozenset(s)
    validated = validate_chain(ground, chain)
    return phi_sizes(len(ground), [len(x) for x in validated])


def check_blocks(universe: int, blocks: Sequence[int]) -> None:
    """Raise ``ValueError`` unless the bitmask blocks are disjoint and cover
    exactly the vertex mask ``universe``."""
    covered = 0
    for blk in blocks:
        if covered & blk:
            raise ValueError("initial blocks overlap")
        covered |= blk
    if covered != universe:
        raise ValueError("initial blocks do not cover the vertices")


def perm_paths(clique, chain):
    """Every permutation :func:`~mectools.sampling.draw_perm` can draw, with
    its exact probability: the step weights of a :class:`PermTable`,
    exhaustive branching instead of random choices."""
    table = PermTable(len(clique), chain)
    ell = table.ell

    def rec(remaining, suffix, drawn, prob):
        if not remaining:
            yield (), prob
            return
        if suffix >= ell:
            share = prob / math.factorial(len(remaining))
            for p in itertools.permutations(remaining):
                yield p, share
            return
        total = table.rows[suffix][drawn]
        for v in remaining:
            nxt = max(table.first_idx.get(v, ell), suffix)
            w = table.rows[nxt][drawn + 1]
            if w == 0:
                continue
            rest = [x for x in remaining if x != v]
            for tail, pr in rec(rest, nxt, drawn + 1, prob * Fraction(w, total)):
                yield (v,) + tail, pr

    yield from rec(sorted(clique), 0, 0, Fraction(1))


def exact_sampler_distribution(g: Uccg, model: SamplerModel) -> dict[frozenset, Fraction]:
    """Propagate exact probabilities through the sampler's decision tree.

    Walks the same clique weights and permutation step weights the sampler
    draws from, replacing random choices by exhaustive branching, and returns
    the induced probability per resulting DAG (as its directed edge set).
    """

    def key_paths(key):
        entry = model.entries[key]
        for record, weight in zip(entry.records, record_weights(entry)):
            if weight == 0:
                continue
            p_rec = Fraction(weight, entry.total)
            # a bare explore model keeps a Components, which is not indexable
            child_keys = tuple(record.child_keys)
            for perm, p_perm in perm_paths(*record_vertices(record)):
                stack = [(0, perm, p_rec * p_perm)]
                while stack:
                    i, tau, prob = stack.pop()
                    if i == len(child_keys):
                        yield tau, prob
                        continue
                    for sub_tau, sub_p in key_paths(child_keys[i]):
                        stack.append((i + 1, tau + sub_tau, prob * sub_p))

    dist: dict[frozenset, Fraction] = {}
    for tau, prob in key_paths(key_of(model, g.labels)):
        edges = uccg_orient_by_ordering(g, tau).edge_set()
        dist[edges] = dist.get(edges, Fraction(0)) + prob
    return dist


def rooted_counts(g: Uccg) -> list[int]:
    """Per local vertex ``v`` of ``g``, the number of ``g``'s AMOs whose
    one source is ``v``: the product of the ``explore`` totals of the
    components left undirected once ``v`` is fixed first, each built as its
    own ``Uccg``.  These are the rooted sub-classes of He, Jia & Yu (JMLR
    16, 2015), one level of root picking with the fast counter below it, so
    they reach far past the brute-force oracles' sizes."""
    totals: dict[int, int] = {}  # component mask -> its count
    out = []
    for v in range(g.n):
        rooted = 1
        for comp in components_by_traversal(g, 1 << v):
            if comp not in totals:
                totals[comp] = explore(component_uccg(g, comp)).total
            rooted *= totals[comp]
        out.append(rooted)
    return out


def component_uccg(g: Uccg, comp: int) -> Uccg:
    """The subgraph of ``g`` induced on the vertex mask ``comp``, built as
    its own checked ``Uccg``; its local vertex ``i`` is the ``i``-th vertex
    of ``comp`` in increasing order."""
    verts = mask_bits(comp)
    local = dict(zip(verts, range(len(verts))))
    return Uccg([g.labels[u] for u in verts], [[local[w] for w in g.adj[u] if w in local] for u in verts])


# --- orientation oracles ----------------------------------------------------


def uccg_orient_by_ordering(g: Uccg, tau: Sequence[int]) -> Dag:
    """Orient every edge of ``g`` from the earlier to the later vertex of
    ``tau``, a permutation of the local vertices; the reference for
    :func:`mectools.graphs.orient_by_ordering` on one component."""
    if sorted(tau) != list(range(g.n)):
        raise ValueError("tau is not a permutation of the vertices")
    pos = [0] * g.n
    for i, v in enumerate(tau):
        pos[v] = i
    out = []
    for u in range(g.n):
        out.append(tuple(v for v in g.adj[u] if pos[u] < pos[v]))
    return Dag(g.n, tuple(out))


def split_ordering(g: PartialGraph, tau: Sequence[int]) -> tuple[list[Uccg], list[list[int]]]:
    """``g``'s undirected components in the order of their smallest vertex,
    built without the chordality check, and ``tau``, a permutation of
    ``range(g.n)``, split into each component's local ordering: its
    vertices in the order ``tau`` places them, as local ids.  The arguments
    of :func:`mectools.graphs.orient_by_ordering` that orient ``g`` as
    ``tau`` does."""
    if sorted(tau) != list(range(g.n)):
        raise ValueError("tau is not a permutation of the vertices")
    comp_of = [-1] * g.n
    members: list[list[int]] = []
    for s in range(g.n):
        if comp_of[s] < 0:
            comp_of[s] = len(members)
            members.append([s])
            for u in members[-1]:  # the list grows as it is read
                for v in g.undirected[u]:
                    if comp_of[v] < 0:
                        comp_of[v] = comp_of[s]
                        members[-1].append(v)
    comps, local = [], {}
    for vs in members:
        labels = sorted(vs)
        local.update((v, i) for i, v in enumerate(labels))
        comps.append(Uccg._unchecked(labels, [[local[w] for w in g.undirected[v]] for v in labels]))
    orders: list[list[int]] = [[] for _ in comps]
    for v in tau:
        orders[comp_of[v]].append(local[v])
    return comps, orders


def orient_globally(g: PartialGraph, tau: Sequence[int]) -> Dag:
    """:func:`mectools.graphs.orient_by_ordering` of ``g`` by the global
    ordering ``tau``, split with :func:`split_ordering`."""
    return orient_by_ordering(g, *split_ordering(g, tau))


def orientation_edges(g: PartialGraph, tau: Sequence[int]) -> frozenset[tuple[int, int]]:
    """``g``'s directed edges plus every undirected edge pointed from the
    earlier to the later vertex of ``tau``, a permutation of ``range(g.n)``;
    the reference edge set for :func:`mectools.graphs.orient_by_ordering`,
    built without :class:`Dag`, so that it exists also when it has a cycle."""
    if sorted(tau) != list(range(g.n)):
        raise ValueError("tau is not a permutation of the vertices")
    pos = {v: i for i, v in enumerate(tau)}
    undirected = {(u, v) if pos[u] < pos[v] else (v, u) for u, v in undirected_pairs(g)}
    return frozenset(g.directed_edges()) | undirected


def has_flag(g: PartialGraph) -> bool:
    """True iff some induced ``a -> b - c`` occurs: the brute-force oracle of
    :attr:`PartialGraph.is_flag_free`, over every vertex triple."""
    undirected = {frozenset(p) for p in undirected_pairs(g)}
    adjacent = undirected | {frozenset(p) for p in g.directed_edges()}
    return any(
        frozenset((b, c)) in undirected and frozenset((a, c)) not in adjacent
        for a, b in g.directed_edges()
        for c in range(g.n)
        if c != a
    )


def has_partially_directed_cycle(g: PartialGraph) -> bool:
    """True iff some cycle through distinct vertices takes at least one
    directed edge, and takes every directed edge on it from tail to head
    (undirected edges either way): the cycles a chain graph has none of.
    Found by trying every simple path from the head of each directed edge
    back to its tail; exponential, for small graphs."""
    step = [set(g.undirected[u]) | set(g.directed_out[u]) for u in range(g.n)]

    def returns(end: int, tail: int, on_path: set[int]) -> bool:
        for x in step[end]:
            if x == tail:
                return True
            if x not in on_path:
                on_path.add(x)
                if returns(x, tail, on_path):
                    return True
                on_path.remove(x)
        return False

    return any(returns(v, u, {u, v}) for u, v in g.directed_edges())


def kahn_acyclic(n: int, edges) -> bool:
    """True iff the directed graph on ``range(n)`` with ``edges`` has no
    directed cycle, by Kahn's algorithm on its own adjacency (independent of
    :class:`Dag`'s check)."""
    heads: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in edges:
        heads[u].append(v)
        indeg[v] += 1
    ready = [u for u in range(n) if indeg[u] == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for v in heads[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return seen == n


def cpdags_on_skeleton(n: int, skeleton: Sequence[tuple[int, int]]) -> set[PartialGraph]:
    """The CPDAG of every Markov equivalence class of DAGs on ``range(n)``
    whose skeleton is the edge list ``skeleton``, by brute force: the acyclic
    orientations of the skeleton, grouped by their v-structures (Verma &
    Pearl), with an edge directed in a group's CPDAG iff every member of the
    group orients it the same way.  Exponential in the number of edges."""
    groups: dict[frozenset, list[frozenset]] = {}
    for flips in itertools.product((False, True), repeat=len(skeleton)):
        arcs = [(v, u) if f else (u, v) for (u, v), f in zip(skeleton, flips)]
        if kahn_acyclic(n, arcs):
            key = frozenset(v_structures(Dag.from_edges(n, arcs)))
            groups.setdefault(key, []).append(frozenset(arcs))
    cpdags = set()
    for members in groups.values():
        fixed = frozenset.intersection(*members)
        loose = [(u, v) for u, v in skeleton if (u, v) not in fixed and (v, u) not in fixed]
        cpdags.add(PartialGraph.from_edges(n, loose, fixed))
    return cpdags


def topological_orderings_of_amo(g: Uccg, dag: Dag) -> list[tuple[int, ...]]:
    """All linear extensions of ``dag`` (which must orient ``g``); n <= 10."""
    n = g.n
    if n > 10:
        raise TooLargeError("linear extension enumeration is limited to 10 vertices")
    if dag.skeleton() != frozenset(g.edges()):
        raise ValueError("dag does not orient the given graph")
    indeg = [0] * n
    for _, v in dag.edges():
        indeg[v] += 1
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []
    used = bytearray(n)

    def rec() -> None:
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(n):
            if not used[v] and indeg[v] == 0:
                used[v] = 1
                for w in dag.out_edges[v]:
                    indeg[w] -= 1
                prefix.append(v)
                rec()
                prefix.pop()
                for w in dag.out_edges[v]:
                    indeg[w] += 1
                used[v] = 0

    rec()
    return out


# --- the permutation draw's scan, the sampler's former pick ----------------


def perm_record(clique: int, chain) -> CliqueRecord:
    """A record of the mask ``clique`` and the chain masks ``chain``, with no
    child keys and its ``phi``, as :func:`~mectools.sampling.draw_perm`
    reads it."""
    chain = tuple(chain)
    return CliqueRecord(clique, chain, (), phi_sizes(clique.bit_count(), [x.bit_count() for x in chain]))


def scan_draw_perm(clique: int, chain, rng: random.Random) -> tuple[int, ...]:
    """The permutation draw as it listed the masks on every call and picked
    each chained position by scanning every remaining vertex, one weight
    added per vertex; :func:`~mectools.sampling.draw_perm` must give the
    same permutation and consume the same randomness."""
    if not chain:  # every order is admissible
        remaining = mask_bits(clique)
        rng.shuffle(remaining)
        return tuple(remaining)
    ell = len(chain)
    sizes = [x.bit_count() for x in chain]
    smallest: dict[int, int] = {}
    for i, (x, prev) in enumerate(zip(chain + (clique,), (0,) + chain)):
        smallest.update(dict.fromkeys(mask_bits(x ^ prev), i))
    remaining = sorted(smallest)
    out: list[int] = []
    suffix = 0
    # φ of the remaining vertices under the active chain suffix: the whole
    # chain first, then the weight of each vertex drawn
    phi = phi_sizes(len(remaining), sizes)
    while suffix < ell:
        left = [s - len(out) - 1 for s in sizes]
        by_suffix = [phi_sizes(len(remaining) - 1, left[j:]) for j in range(suffix, ell + 1)]
        # a vertex's weight, indexed by the smallest set that holds it (ell
        # if none); a set before the active suffix counts as its first
        weight = by_suffix[:1] * suffix + by_suffix
        r = rng.randrange(phi)
        total = 0
        pick = -1
        for pos, v in enumerate(remaining):
            total += weight[smallest[v]]
            if pick < 0 and r < total:
                pick = pos
        assert total == phi and total > 0
        v = remaining.pop(pick)
        out.append(v)
        phi = weight[smallest[v]]
        suffix = max(suffix, smallest[v])
    rng.shuffle(remaining)
    out.extend(remaining)
    return tuple(out)


# --- table-based permutation draw, the sampler's former path ---------------


class PermTable:
    """Permutation counts indexed by (chain suffix start, vertices drawn).

    ``rows[i][d]`` is the number of permutations of the remaining k-d clique
    vertices avoiding the chain suffix starting at ``i`` with ``d`` drawn
    vertices removed from every suffix element; by nesting, only these two
    parameters matter.  ``first_idx`` maps each chain vertex to the smallest
    chain set containing it.
    """

    def __init__(self, clique_size: int, chain_sets):
        chain_sizes = [len(s) for s in chain_sets]
        self.ell = len(chain_sizes)
        self.rows = [
            [
                phi_sizes(clique_size - d, [s - d for s in chain_sizes[i:]])
                for d in range(clique_size + 1)
            ]
            for i in range(self.ell + 1)
        ]
        self.first_idx: dict[int, int] = {}
        for i, s in enumerate(chain_sets):
            for v in s:
                self.first_idx.setdefault(v, i)


def table_draw_perm(clique, chain, rng: random.Random) -> tuple:
    """The permutation draw as it read its step weights from a filled
    :class:`PermTable`; the library's :func:`~mectools.sampling.draw_perm`
    must give the same permutation and consume the same randomness."""
    remaining = sorted(clique)
    table = PermTable(len(remaining), validate_chain(frozenset(remaining), chain))
    out: list = []
    suffix = 0
    drawn = 0
    ell = table.ell
    while remaining:
        if suffix >= ell:
            rng.shuffle(remaining)
            out.extend(remaining)
            break
        free_weight = math.factorial(len(remaining) - 1)
        weighted = []
        for v in remaining:
            j = max(table.first_idx.get(v, ell), suffix)
            weighted.append((v, table.rows[j][drawn + 1] if j < ell else free_weight, j))
        total = sum(w for _, w, _ in weighted)
        assert total == table.rows[suffix][drawn] and total > 0
        r = rng.randrange(total)
        acc = 0
        for pos, (v, w, nxt) in enumerate(weighted):
            acc += w
            if r < acc:
                break
        out.append(v)
        remaining.pop(pos)
        suffix = nxt
        drawn += 1
    return tuple(out)


def table_draw_order(model: SamplerModel, rng: random.Random) -> list[int]:
    """A model draw in its root's local vertices whose permutations come
    from :func:`table_draw_perm`."""
    tau: list[int] = []
    stack = [model.root_key]
    while stack:
        entry = model.entries[stack.pop()]
        record = entry.records[bisect.bisect_right(entry.cumulative, rng.randrange(entry.total))]
        tau.extend(table_draw_perm(*record_vertices(record), rng))
        stack.extend(reversed(record.child_keys))
    return tau


# --- list-based oracles for the bitset traversal engine -------------------
#
# The traversal below is the library's former engine: vertex buckets in a
# doubly-linked list, moved and visited entries skipped lazily.  It also
# supports ``forced`` picks, which only the permutation variant of the
# subproblem step uses.


def list_refine_traversal(
    adj: Sequence[Sequence[int]],
    initial_blocks: Sequence[Sequence[int]],
    forced: Sequence[int] = (),
    rng: random.Random | None = None,
    skip_record: Sequence[int] | None = None,
) -> tuple[list[int], list[list[int]]]:
    """List-based partition-refinement traversal, the oracle for the library's
    bitset engine ``mectools._partition.refine_traversal``.

    Visits all vertices, always picking from the lexicographically first block.

    ``initial_blocks`` is the starting block sequence (each block sorted, the
    blocks disjoint and covering all vertices).  The first ``len(forced)``
    picks are forced to the given vertices, which must lie in the front block
    at their turn.  With ``rng`` the pick among the front block is random
    instead of lowest-index.

    If ``skip_record`` is not None, recording is enabled: whenever the visited
    vertex belongs to no previously recorded block and is not in
    ``skip_record``, the current front block is recorded.  Returns the visit
    order and the recorded blocks in recording order.
    """
    n = len(adj)
    members: list[list[int]] = []
    head: list[int] = []
    nxt: list[int] = []
    prv: list[int] = []
    stamp: list[int] = []
    twin: list[int] = []

    vblock = [-1] * n
    visited = bytearray(n)

    recording = skip_record is not None
    recorded = bytearray(n)
    skip = bytearray(n)
    if recording:
        for u in skip_record:
            skip[u] = 1

    first = -1
    prev_id = -1
    for blk in initial_blocks:
        if not blk:
            continue
        bid = len(members)
        members.append(list(blk))
        head.append(0)
        stamp.append(-1)
        twin.append(-1)
        prv.append(prev_id)
        nxt.append(-1)
        if prev_id >= 0:
            nxt[prev_id] = bid
        else:
            first = bid
        for u in blk:
            vblock[u] = bid
        prev_id = bid

    tau: list[int] = []
    records: list[list[int]] = []
    nforced = len(forced)

    for step in range(n):
        # advance to the first block that still has a live entry
        b = first
        v = -1
        while b != -1:
            mem = members[b]
            h = head[b]
            ln = len(mem)
            while h < ln:
                u = mem[h]
                if vblock[u] == b and not visited[u]:
                    break
                h += 1
            head[b] = h
            if h < ln:
                v = mem[h]
                break
            nb = nxt[b]
            pb = prv[b]
            if pb >= 0:
                nxt[pb] = nb
            else:
                first = nb
            if nb >= 0:
                prv[nb] = pb
            b = nb
        if v < 0:
            raise ValueError("traversal exhausted before all vertices were visited")

        if step < nforced:
            v = forced[step]
            assert vblock[v] == b and not visited[v], "forced vertex not in front block"
        elif rng is not None:
            live = [u for u in members[b][head[b]:] if vblock[u] == b and not visited[u]]
            v = rng.choice(live)

        if recording and not recorded[v] and not skip[v]:
            block_now = [
                u for u in members[b][head[b]:] if vblock[u] == b and not visited[u]
            ]
            for u in block_now:
                recorded[u] = 1
            records.append(block_now)

        visited[v] = 1
        tau.append(v)

        for w in adj[v]:
            if visited[w]:
                continue
            bw = vblock[w]
            if stamp[bw] != step:
                stamp[bw] = step
                t = len(members)
                members.append([])
                head.append(0)
                stamp.append(-1)
                twin.append(-1)
                pb = prv[bw]
                prv.append(pb)
                nxt.append(bw)
                if pb >= 0:
                    nxt[pb] = t
                else:
                    first = t
                prv[bw] = t
                twin[bw] = t
            tw = twin[bw]
            members[tw].append(w)
            vblock[w] = tw

    return tau, records


def _list_emit_components(g: Uccg, blocks: list[list[int]]) -> list[Uccg]:
    in_block = bytearray(g.n)
    out: list[Uccg] = []
    for block in blocks:
        for u in block:
            in_block[u] = 1
        seen = set()
        for s in block:
            if s in seen:
                continue
            comp = [s]
            seen.add(s)
            stack = [s]
            while stack:
                u = stack.pop()
                for w in g.adj[u]:
                    if in_block[w] and w not in seen:
                        seen.add(w)
                        comp.append(w)
                        stack.append(w)
            comp.sort()
            local = {v: i for i, v in enumerate(comp)}
            adj = [[local[w] for w in g.adj[v] if in_block[w]] for v in comp]
            out.append(Uccg._unchecked([g.labels[v] for v in comp], adj))
        for u in block:
            in_block[u] = 0
    return out


def list_k_first_records(g: Uccg, clique: Sequence[int], rng=None, forced=()):
    """Visit order and recorded blocks of the K-first traversal; ``forced``
    fixes the order the clique is consumed in."""
    kset = sorted(clique)
    rest = sorted(set(range(g.n)) - set(kset))
    return list_refine_traversal(
        g.adj, [kset, rest], forced=tuple(forced), rng=rng, skip_record=kset
    )


def list_components_after_clique(g: Uccg, clique: Sequence[int], rng=None) -> list[Uccg]:
    check_clique(g, list(clique))
    _, records = list_k_first_records(g, clique, rng=rng)
    return _list_emit_components(g, records)


def components_after_permutation(
    g: Uccg,
    ordered_clique: Sequence[int],
    rng: random.Random | None = None,
) -> list[Uccg]:
    """Components left undirected after a clique prefix consumed in the given
    order; the outcome coincides with ``components_by_traversal``."""
    check_clique(g, ordered_clique)
    _, records = list_k_first_records(g, ordered_clique, rng=rng, forced=ordered_clique)
    return _list_emit_components(g, records)


def list_lbfs_order(g: Uccg, rng: random.Random | None = None) -> list[int]:
    return list_refine_traversal(g.adj, [list(range(g.n))], rng=rng)[0]


def list_is_peo(g: Uccg, rho: Sequence[int]) -> bool:
    """The elimination-ordering test of Rose, Tarjan & Lueker on adjacency
    lists, the judge of :func:`mectools.is_chordal` on a reversed LBFS order:
    each vertex's later neighbors other than the earliest one ``m`` are
    queued on ``m`` and checked when ``m`` comes up."""
    n = g.n
    if sorted(rho) != list(range(n)):
        raise ValueError("rho is not a permutation of the vertices")
    pos = [0] * n
    for i, v in enumerate(rho):
        pos[v] = i
    required: list[list[int]] = [[] for _ in range(n)]
    for v in rho:
        if required[v]:
            nbr = set(g.adj[v])
            for w in required[v]:
                if w not in nbr:
                    return False
        later = [w for w in g.adj[v] if pos[w] > pos[v]]
        if not later:
            continue
        m = min(later, key=pos.__getitem__)
        req = required[m]
        for w in later:
            if w != m:
                req.append(w)
    return True


def per_vertex_cliques_of_sweep(g: Uccg, sweep: Sequence[int]) -> tuple[list[int], list[int]] | None:
    """The oracle for ``mectools.chordal._cliques_of_sweep``: the same runs
    of the sweep, but each new clique attaches to the largest ``clique_of``
    among its earlier neighbors, read vertex by vertex, where ``clique_of[w]``
    is the clique ``w`` joined on its visit."""
    masks = g.adj_masks
    visited = 0
    cliques = [0]
    attach: list[int] = []
    clique_of = [0] * g.n
    for v in sweep:
        bit = 1 << v
        earlier = masks[v] & visited
        if earlier != cliques[-1]:
            a = max(map(clique_of.__getitem__, mask_bits(earlier)), default=-1)
            if earlier | cliques[a] != cliques[a]:
                return None
            attach.append(a)
            cliques.append(0)
        cliques[-1] = earlier | bit
        clique_of[v] = len(cliques) - 1
        visited |= bit
    return cliques, attach


def list_clique_tree_of_sweep(
    g: Uccg, sweep: Sequence[int], rng: random.Random | None
) -> CliqueTree:
    """The clique tree of the LBFS visit order ``sweep`` built on adjacency
    lists, the oracle for ``mectools.chordal.clique_tree`` on that sweep: run
    flags and hit counts find where a clique closes, separators intersect
    sets, the tree's ``order`` is a BFS over per-clique child lists, and
    ``adj`` lists each clique's tree neighbors as the attachments add them."""
    n = g.n
    adj = g.adj
    pos = [0] * n
    for i, v in enumerate(sweep):
        pos[v] = i

    cliques: list[list[int]] = [[sweep[0]]]
    attach: list[int] = [-1]
    run_of = [0] * n
    in_run = bytearray(n)
    in_run[sweep[0]] = 1
    run_members = cliques[0]

    for i in range(1, n):
        v = sweep[i]
        earlier = [w for w in adj[v] if pos[w] < i]
        assert earlier, "a connected graph cannot start a component mid-sweep"
        hits = 0
        for w in earlier:
            if in_run[w]:
                hits += 1
        if hits == len(run_members):
            # current run extends: the clique becomes earlier-neighbors plus v
            for w in earlier:
                if not in_run[w]:
                    in_run[w] = 1
            in_run[v] = 1
            run_members = earlier + [v]
            cliques[-1] = run_members
        else:
            for w in run_members:
                in_run[w] = 0
            u_last = max(earlier, key=pos.__getitem__)
            run_members = earlier + [v]
            for w in run_members:
                in_run[w] = 1
            cliques.append(run_members)
            attach.append(run_of[u_last])
        run_of[v] = len(cliques) - 1

    clique_tuples = tuple(tuple(sorted(c)) for c in cliques)
    k = len(clique_tuples)

    if rng is not None:
        root = rng.randrange(k)
    else:
        root = next(i for i, c in enumerate(clique_tuples) if c[0] == 0)

    tree_adj: list[list[int]] = [[] for _ in range(k)]
    for s in range(1, k):
        tree_adj[s].append(attach[s])
        tree_adj[attach[s]].append(s)

    parent = [-1] * k
    parent[root] = root
    bfs = [root]
    i = 0
    while i < len(bfs):
        x = bfs[i]
        i += 1
        for y in tree_adj[x]:
            if parent[y] == -1:
                parent[y] = x
                bfs.append(y)

    separators: list[tuple[int, ...] | None] = [None] * k
    for x in range(k):
        if x == root:
            continue
        px = set(clique_tuples[parent[x]])
        separators[x] = tuple(v for v in clique_tuples[x] if v in px)

    kids: list[list[int]] = [[] for _ in range(k)]
    for x, p in enumerate(parent):
        if x != root:
            kids[p].append(x)
    tree_order = [root]
    i = 0
    while i < len(tree_order):
        tree_order.extend(kids[tree_order[i]])
        i += 1

    return CliqueTree(
        tuple(map(vertex_mask, clique_tuples)),
        tuple(parent),
        tuple(None if s is None else vertex_mask(s) for s in separators),
        tuple(tree_order),
        tuple(map(tuple, tree_adj)),
    )


def list_engine_plans(g: Uccg, seed: int | None = None) -> dict:
    """The counter's clique nodes as computed before the bitset engine, as
    ``(phi, clique, chain, child keys)`` per node: list traversals
    throughout, and a clique tree from a full list-based sweep for every
    explored graph, complete ones included.  With a ``seed``, each graph's
    tree is drawn from a generator seeded from it and the graph's mask over
    ``g``'s local vertices."""
    plans: dict = {}
    graphs = [g]
    seen = {g.labels}
    while graphs:
        cur = graphs.pop()
        sub = vertex_mask(map(g.labels.index, cur.labels))
        rng = random.Random(f"{seed} {sub}") if seed is not None else None
        t = list_clique_tree_of_sweep(cur, list_lbfs_order(cur, rng), rng)
        chains = fp_chains(t)
        nodes = []
        for idx in t.order:
            clique = mask_bits(t.cliques[idx])
            chain = [mask_bits(x) for x in chains[idx]]
            children = []
            for h in list_components_after_clique(cur, clique):
                children.append(h.labels)
                if h.labels not in seen:
                    seen.add(h.labels)
                    graphs.append(h)
            nodes.append((
                phi_chain(clique, chain),
                tuple(cur.labels[v] for v in clique),
                tuple(tuple(cur.labels[v] for v in x) for x in chain),
                tuple(children),
            ))
        plans[cur.labels] = tuple(nodes)
    return plans


def _connected(adj: Sequence[Sequence[int]], verts) -> bool:
    """True iff ``verts`` are connected in ``adj``; the connectivity oracle."""
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


def induced_subgraph(g: Uccg, vs) -> Uccg:
    """Induced subgraph of ``g`` on the global labels ``vs``, which the caller
    guarantees to be connected."""
    verts = sorted({g.labels.index(lab) for lab in vs})
    local = {v: i for i, v in enumerate(verts)}
    adj = [[local[w] for w in g.adj[v] if w in local] for v in verts]
    out = Uccg._unchecked([g.labels[v] for v in verts], adj)
    assert _connected(out.adj, range(out.n)), "induced subgraph must be connected"
    return out


# --- the label view of model keys -------------------------------------------
#
# An explored subgraph is keyed by the vertex mask of its local vertices in
# the model's root; tests compare models through the global labels.


def labels_of(g: Uccg, mask: int) -> tuple[int, ...]:
    """Global labels of the vertex mask ``mask`` over ``g``'s local vertices."""
    return tuple(map(g.labels.__getitem__, mask_bits(mask)))


def record_weights(entry) -> list[int]:
    """Each record's weight, ``phi`` times its child keys' totals: the steps
    of the entry's ``cumulative``."""
    return [b - a for a, b in zip((0,) + entry.cumulative, entry.cumulative)]


def key_of(model: SamplerModel, labels: Sequence[int]) -> int:
    """The key of ``model``'s entry whose label view is ``labels``."""
    (key,) = [k for k in model.entries if labels_of(model.root, k) == tuple(labels)]
    return key


def sample_cpdag_by_components(
    g: PartialGraph, models: Sequence[SamplerModel], comps: Sequence[Uccg], rng
) -> Dag:
    """A CPDAG draw assembled from one :func:`uccg_orient_by_ordering` DAG
    per component, re-labelled and merged edge by edge."""
    out: list[set[int]] = [set(a) for a in g.directed_out]
    for comp, model in zip(comps, models):
        labels = comp.labels
        for u, v in uccg_orient_by_ordering(comp, _draw_order(model, rng)).edges():
            out[labels[u]].add(labels[v])
    return Dag(g.n, tuple(tuple(sorted(s)) for s in out))


def many_component_cpdag(seed: int, comps: int = 12, colliders: int = 6) -> PartialGraph:
    """Chordal components of three generator families, isolated vertices and
    colliders whose parents lie in distinct components, with shuffled ids."""
    rng = random.Random(seed)
    families = [
        lambda size, s: gen_subtree(size, 3, s),
        lambda size, s: gen_peo(size, 2, s),
        lambda size, s: gen_interval(size, s),
    ]
    parts = [families[i % 3](rng.randint(1, 12), rng.randrange(2**31)) for i in range(comps)]
    starts = []
    base = 0
    for part in parts:
        starts.append(base)
        base += part.n
    undirected = [(starts[i] + u, starts[i] + v) for i, p in enumerate(parts) for u, v in p.edges()]
    directed = []
    for c in range(colliders):
        for p in rng.sample(range(comps), rng.randint(2, 4)):
            directed.append((starts[p] + rng.randrange(parts[p].n), base + c))
    n = base + colliders + 3  # three isolated vertices
    perm = list(range(n))
    rng.shuffle(perm)
    return PartialGraph.from_edges(
        n, [(perm[u], perm[v]) for u, v in undirected], [(perm[u], perm[v]) for u, v in directed]
    )


def check_partial_graph(n: int, undirected, directed_out) -> None:
    """The invariant check of :class:`PartialGraph`, written pair by pair:
    raises the ``ValueError`` the constructor must raise on these fields."""
    if len(undirected) != n or len(directed_out) != n:
        raise ValueError("adjacency length does not match vertex count")
    for row in list(undirected) + list(directed_out):
        if any(a >= b for a, b in zip(row, row[1:])):
            raise ValueError("neighbor lists must be sorted and duplicate-free")
    seen: set[tuple[int, int]] = set()
    for u in range(n):
        for v in undirected[u]:
            if v == u:
                raise ValueError("self-loop")
            if not 0 <= v < n:
                raise ValueError("vertex out of range")
            if u not in undirected[v]:
                raise ValueError("undirected adjacency not symmetric")
            if u < v:
                seen.add((u, v))
    for u in range(n):
        for v in directed_out[u]:
            if v == u:
                raise ValueError("self-loop")
            if not 0 <= v < n:
                raise ValueError("vertex out of range")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise ValueError("vertex pair carries more than one edge")
            seen.add(pair)


# other spellings int() reads for a vertex name of plain decimal digits
RESPELLINGS = [
    lambda s: "0" + s,
    lambda s: "00" + s,
    lambda s: "+" + s,
    lambda s: "+0" + s,
    lambda s: s[0] + "_" + s[1:] if len(s) > 1 else s,
    lambda s: s.translate({48 + d: 0x660 + d for d in range(10)}),  # Arabic-Indic
    lambda s: s.translate({48 + d: 0xFF10 + d for d in range(10)}),  # fullwidth
]


def reference_parse_graph(text: str | bytes) -> PartialGraph:
    """The graph file parser written line list first, then counts, then
    edges: the reference for :func:`mectools.parse_graph`'s graphs, errors,
    messages and line numbers."""
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
    if n > sys.maxsize:
        raise ParseError("malformed header, vertex count too large", no)
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
    g = PartialGraph.from_edges(n, und, dire)
    check_partial_graph(g.n, g.undirected, g.directed_out)
    return g


def reference_undirected_components(g: PartialGraph) -> list[Uccg]:
    """Components by a dict relabelling, each checked for chordality on the
    list engine."""
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
        c = Uccg._unchecked(comp, [[local[w] for w in g.undirected[v]] for v in comp])
        if not list_is_peo(c, list_lbfs_order(c)[::-1]):
            raise NotChordalError(comp)
        out.append(c)
    return out
