"""Exact counting of acyclic moral orientations (AMOs).

The counter walks a rooted clique tree: each tree node contributes the number
of permutations of its clique that avoid the separator chain inherited along
the root path, times the counts of the subgraphs left undirected once the
clique is fixed.  Explored subgraphs are memoized by their sorted global
label tuple; counts are exact big integers (they reach n!).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

from .chordal import CliqueTree, clique_tree
from .graphs import PartialGraph, Uccg, undirected_components
from .subproblems import components_after_clique

# memo key: sorted global labels of an explored induced subgraph
Key = Tuple[int, ...]
MemoTable = Dict[Key, int]


class ChainNotNestedError(ValueError):
    """Chain elements are not strictly nested."""


class ChainElementNotProperSubsetError(ValueError):
    """A chain element is not a proper subset of the ground set."""


class SetTooLargeError(ValueError):
    """The ground set exceeds the enumeration limit."""


_FACT = [1]


def factorial(k: int) -> int:
    """Arbitrary-precision factorial, cached for the process lifetime."""
    f = _FACT
    while len(f) <= k:
        f.append(f[-1] * len(f))
    return f[k]


def _phi_sizes(total: int, sizes: Sequence[int]) -> int:
    """Permutations of a ``total``-set avoiding a nested chain of prefix sets.

    Only the chain sizes matter once strict nesting holds.  A size <= 0 means
    an empty forbidden prefix, which every permutation has, so 0 is returned.
    """
    if sizes and sizes[0] <= 0:
        return 0
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


@dataclass(frozen=True)
class FpChain:
    """A strictly nested chain of forbidden prefix sets X_1 < X_2 < ... < X_l."""

    sets: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.sets)

    def sizes(self) -> list[int]:
        return [len(s) for s in self.sets]


def validate_chain(ground: frozenset, sets: Sequence[Iterable[int]]) -> list[frozenset]:
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


def phi_chain(s: Iterable[int], chain: FpChain | Sequence[Iterable[int]]) -> int:
    """Number of permutations of ``s`` with no chain element as a prefix.

    Requires the chain to be strictly nested; evaluated with quadratically
    many big-integer operations via the peel-off recurrence on the chain.
    """
    ground = frozenset(s)
    sets = chain.sets if isinstance(chain, FpChain) else tuple(chain)
    validated = validate_chain(ground, sets)
    return _phi_sizes(len(ground), [len(x) for x in validated])


def phi_naive(s: Iterable[int], collection: Iterable[Iterable[int]]) -> int:
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


def fp_chains(t: CliqueTree) -> tuple[FpChain, ...]:
    """Per-node forbidden-prefix chains of a rooted clique tree.

    Node ``v`` collects the separators along the root-to-``v`` path that are
    subsets of its clique, in path order; these are automatically nested.
    Sets are in local vertex ids, the root gets the empty chain.
    """
    k = len(t.cliques)
    chains: list[FpChain | None] = [None] * k
    chains[t.root] = FpChain(())
    clique_sets = [frozenset(c) for c in t.cliques]
    for x in t.bfs_order():
        if x == t.root:
            continue
        parent_chain = chains[t.parent[x]]
        assert parent_chain is not None
        cs = clique_sets[x]
        kept = [s for s in parent_chain.sets if cs.issuperset(s)]
        sep = t.separators[x]
        assert sep is not None
        if not (kept and len(kept[-1]) == len(sep)):
            kept.append(sep)
        chains[x] = FpChain(tuple(kept))
    return tuple(chains)  # type: ignore[arg-type]


@dataclass(frozen=True)
class NodePlan:
    """One clique-tree node of an explored subgraph: its permutation count,
    the clique and chain in global labels, and the component keys in
    recording order."""

    phi: int
    clique: tuple[int, ...]
    chain: tuple[tuple[int, ...], ...]
    children: tuple[Key, ...]


@dataclass(frozen=True)
class Exploration:
    root_key: Key
    plans: Dict[Key, tuple[NodePlan, ...]]
    depth: Dict[Key, int]


def _explore(g: Uccg, memo: MemoTable, rng: random.Random | None) -> Exploration:
    """Expand every not-yet-memoized subgraph reachable from ``g``.

    Uses an explicit work stack: path-like graphs produce recursion depths
    proportional to the clique count, which would overrun the interpreter
    stack.  A complete subgraph gets its single plan node directly, without
    building its adjacency.
    """
    plans: Dict[Key, tuple[NodePlan, ...]] = {}
    depth: Dict[Key, int] = {}
    graphs: list[Uccg] = []
    if g.key not in memo:
        depth[g.key] = 0
        graphs.append(g)
        seen = {g.key}
    else:
        seen = set()
    while graphs:
        cur = graphs.pop()
        cur_key = cur.key
        t = clique_tree(cur, rng=rng)
        if len(t.cliques) == 1:
            # a complete graph: no separators, nothing left once it is fixed
            plans[cur_key] = (NodePlan(factorial(cur.n), cur_key, (), ()),)
            continue
        chains = fp_chains(t)
        labels = cur.labels
        node_plans = []
        for idx in t.bfs_order():
            clique = t.cliques[idx]
            comps = components_after_clique(cur, clique, check=False)
            child_keys = []
            for h in comps:
                hk = h.key
                child_keys.append(hk)
                if hk not in memo and hk not in seen:
                    seen.add(hk)
                    depth[hk] = depth[cur_key] + 1
                    graphs.append(h)
            phi = _phi_sizes(len(clique), chains[idx].sizes())
            node_plans.append(
                NodePlan(
                    phi,
                    tuple(labels[v] for v in clique),
                    tuple(tuple(labels[v] for v in s) for s in chains[idx].sets),
                    tuple(child_keys),
                )
            )
        plans[cur_key] = tuple(node_plans)
    return Exploration(g.key, plans, depth)


def _evaluate(plans: Dict[Key, tuple[NodePlan, ...]], memo: MemoTable) -> None:
    # children have strictly fewer vertices, so size order is dependency order
    for key in sorted(plans, key=len):
        total = 0
        for plan in plans[key]:
            prod = plan.phi
            for child in plan.children:
                prod *= memo[child]
            total += prod
        memo[key] = total


def count_amos(
    g: Uccg,
    memo: MemoTable | None = None,
    seed: int | None = None,
) -> int:
    """Number of acyclic moral orientations of a connected chordal graph.

    ``memo`` may be shared across calls of one counting run; ``seed``
    randomizes clique-tree construction (the result is tree-invariant).
    """
    if memo is None:
        memo = {}
    if g.key in memo:
        return memo[g.key]
    rng = random.Random(seed) if seed is not None else None
    ex = _explore(g, memo, rng)
    _evaluate(ex.plans, memo)
    return memo[g.key]


def count_cpdag(g: PartialGraph) -> int:
    """Size of the Markov equivalence class represented by a CPDAG.

    Product over the undirected components; a fully directed input counts 1.
    Raises :class:`~mectools.graphs.NotChordalError` if a component is not
    chordal.
    """
    memo: MemoTable = {}
    total = 1
    for comp in undirected_components(g):
        total *= count_amos(comp, memo)
    return total


@dataclass(frozen=True)
class CountStats:
    """Count plus exploration bookkeeping for one connected chordal graph."""

    count: int
    explored: int
    max_cliques: int
    by_depth: tuple[tuple[int, int], ...]


def count_with_stats(g: Uccg, seed: int | None = None) -> CountStats:
    """Like :func:`count_amos`, also reporting how many distinct subgraphs the
    run explored (the input included) and how many per recursion level."""
    memo: MemoTable = {}
    rng = random.Random(seed) if seed is not None else None
    ex = _explore(g, memo, rng)
    _evaluate(ex.plans, memo)
    levels: dict[int, int] = {}
    for key, d in ex.depth.items():
        levels[d] = levels.get(d, 0) + 1
    return CountStats(
        count=memo[g.key],
        explored=len(ex.plans),
        max_cliques=len(ex.plans[g.key]),
        by_depth=tuple(sorted(levels.items())),
    )
