"""Shared fixtures: small named graphs, random corpora, and brute-force checks."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Sequence

from mectools import (
    Uccg,
    chordal,
    clique_tree,
    components_after_clique,
    count_amos,
    enumerate_amos,
    fp_chains,
    orient_by_ordering,
    phi_chain,
    phi_naive,
)
from mectools._partition import mask_bits
from mectools.counting import NodePlan
from mectools.generators import gen_interval, gen_peo, gen_subtree, gen_thicken
from mectools.sampling import SamplerModel, perm_step_weights
from mectools.subproblems import _check_clique


def path_graph(n: int) -> Uccg:
    return Uccg.from_edges(range(n), [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Uccg:
    return Uccg.from_edges(range(n), itertools.combinations(range(n), 2))


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


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
            if max(len(c) for c in t.cliques) > max_clique:
                continue
        out.append(g)
    return out


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


def count_by_separator_formula(g: Uccg) -> int:
    """Sum over minimal separators and maximal cliques of the number of
    orderings starting there, with naive prefix-avoidance counts."""
    t = clique_tree(g)
    cliques = set(t.cliques)
    seps = {s for s in t.separators if s is not None}
    total = 0
    for s in cliques | seps:
        forbidden = [set(x) for x in seps if set(x) < set(s)]
        prod = 1
        for h in components_after_clique(g, s):
            prod *= count_amos(h)
        total += phi_naive(s, forbidden) * prod
    return total


def exact_sampler_distribution(g: Uccg, model: SamplerModel) -> dict[frozenset, Fraction]:
    """Propagate exact probabilities through the sampler's decision tree.

    Walks the same clique weights and permutation step weights the sampler
    draws from, replacing random choices by exhaustive branching, and returns
    the induced probability per resulting DAG (as its directed edge set).
    """

    def perm_paths(key, record):
        table = model.table_for(key, record)
        ell = len(record.chain)

        def rec(remaining, suffix, drawn, prob):
            if not remaining:
                yield (), prob
                return
            if suffix >= ell:
                share = prob / math.factorial(len(remaining))
                for p in itertools.permutations(remaining):
                    yield p, share
                return
            weighted = perm_step_weights(remaining, suffix, drawn, table)
            total = sum(w for _, w, _ in weighted)
            for v, w, nxt in weighted:
                if w == 0:
                    continue
                rest = [x for x in remaining if x != v]
                for tail, pr in rec(rest, nxt, drawn + 1, prob * Fraction(w, total)):
                    yield (v,) + tail, pr

        yield from rec(sorted(record.clique), 0, 0, Fraction(1))

    def key_paths(key):
        entry = model.entries[key]
        for record in entry.records:
            if record.weight == 0:
                continue
            p_rec = Fraction(record.weight, entry.total)
            for perm, p_perm in perm_paths(key, record):
                stack = [(0, perm, p_rec * p_perm)]
                while stack:
                    i, tau, prob = stack.pop()
                    if i == len(record.child_keys):
                        yield tau, prob
                        continue
                    for sub_tau, sub_p in key_paths(record.child_keys[i]):
                        stack.append((i + 1, tau + sub_tau, prob * sub_p))

    dist: dict[frozenset, Fraction] = {}
    for tau_labels, prob in key_paths(g.key):
        tau = tuple(g.local_of(lab) for lab in tau_labels)
        edges = orient_by_ordering(g, tau).edge_set()
        dist[edges] = dist.get(edges, Fraction(0)) + prob
    return dist


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
            out.append(Uccg([g.labels[v] for v in comp], adj, validate=False))
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
    _check_clique(g, list(clique))
    _, records = list_k_first_records(g, clique, rng=rng)
    return _list_emit_components(g, records)


def components_after_permutation(
    g: Uccg,
    ordered_clique: Sequence[int],
    rng: random.Random | None = None,
) -> list[Uccg]:
    """Components left undirected after a clique prefix consumed in the given
    order; the outcome coincides with ``components_after_clique``."""
    _check_clique(g, ordered_clique)
    _, records = list_k_first_records(g, ordered_clique, rng=rng, forced=ordered_clique)
    return _list_emit_components(g, records)


def list_lbfs_order(g: Uccg, rng: random.Random | None = None) -> list[int]:
    return list_refine_traversal(g.adj, [list(range(g.n))], rng=rng)[0]


def list_engine_plans(g: Uccg, seed: int | None = None) -> dict:
    """The counter's exploration plans as computed before the bitset engine:
    list traversals throughout, and a clique tree from a full sweep for
    every explored graph, complete ones included."""
    rng = random.Random(seed) if seed is not None else None
    plans: dict = {}
    graphs = [g]
    seen = {g.key}
    while graphs:
        cur = graphs.pop()
        t = chordal._clique_tree_of_sweep(cur, list_lbfs_order(cur, rng), rng)
        chains = fp_chains(t)
        nodes = []
        for idx in t.bfs_order():
            clique = t.cliques[idx]
            children = []
            for h in list_components_after_clique(cur, clique):
                children.append(h.key)
                if h.key not in seen:
                    seen.add(h.key)
                    graphs.append(h)
            nodes.append(
                NodePlan(
                    phi_chain(clique, chains[idx]),
                    tuple(cur.labels[v] for v in clique),
                    tuple(tuple(cur.labels[v] for v in x) for x in chains[idx].sets),
                    tuple(children),
                )
            )
        plans[cur.key] = tuple(nodes)
    return plans
