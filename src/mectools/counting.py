"""Exact counting of acyclic moral orientations (AMOs).

The counter walks a rooted clique tree: each tree node contributes the number
of permutations of its clique that avoid the separator chain inherited along
the root path, times the counts of the subgraphs left undirected once the
clique is fixed.  Every explored subgraph is an induced subgraph of the
root, kept and memoized as the int mask of its vertices over the root's
local vertices; counts are exact big integers (they reach n!).

Those subgraphs are the pieces of the regions behind the node's tree edges
(:mod:`mectools.subproblems`), so a node's count of them is a product of
region weights: a region weighs the product, over its pieces, of the
piece's count times the weights of the regions it opens.  Each directed
tree edge is weighed once, so a count never lists a node's subgraphs,
which grow as n^2 on sparse trees.

:func:`explore` runs this once and keeps every node as one record, in the
root's local vertices, in a :class:`SamplerModel`: the counters read its
totals, and the sampler draws from its records, each of which runs the
traversal for its subgraphs' order when a draw first reads it.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from itertools import accumulate
from math import prod
from operator import attrgetter
from typing import Dict, Sequence

from .chordal import CliqueTree, clique_tree
from .graphs import PartialGraph, Uccg, _split
from .subproblems import Components, Region, components_after_clique, tree_regions

# key of an explored induced subgraph: its vertex mask over the root's
# local vertices (bit ``v`` for local vertex ``v``)
Key = int


_FACT = [1]
_FACT_LOCK = threading.Lock()


def factorial(k: int) -> int:
    """Arbitrary-precision factorial, cached for the process lifetime.

    The table only grows, one thread at a time under a lock, so a read of
    an entry that exists needs no lock."""
    f = _FACT
    if len(f) <= k:
        with _FACT_LOCK:
            while len(f) <= k:
                f.append(f[-1] * len(f))
    return f[k]


def _phi_sizes(total: int, sizes: Sequence[int]) -> int:
    """Permutations of a ``total``-set avoiding a nested chain of prefix sets.

    Only the chain sizes matter once strict nesting holds; no size exceeds
    ``total``.  A size <= 0 means an empty forbidden prefix, which every
    permutation has, so 0 is returned.
    """
    if sizes and sizes[0] <= 0:
        return 0
    factorial(total)
    f = _FACT
    sub: list[int] = []
    for i, s in enumerate(sizes):
        val = f[s]
        for j in range(i):
            val -= f[s - sizes[j]] * sub[j]
        sub.append(val)
    result = f[total]
    for i, s in enumerate(sizes):
        result -= f[total - s] * sub[i]
    return result


def _chain_weights(total: int, sizes: Sequence[int]) -> tuple[int, ...]:
    """The weights ``W`` of :func:`_phi_suffixes`'s closed form for a
    ``total``-set with the chain sizes ``sizes`` (strictly increasing, each
    below ``total``).

    ``W_j`` is ``Σ_{i≥j} f[total − s_i]·C_ij``, where ``C`` inverts the unit
    lower-triangular ``M_ij = f[s_i − s_j]``, the matrix of
    :func:`_phi_sizes`'s peel-off recurrence; it is found from the last set
    back, as ``W_j = f[total − s_j] − Σ_{i>j} W_i·f[s_i − s_j]``.
    """
    factorial(total)
    f = _FACT
    w = [0] * len(sizes)
    for j in range(len(sizes) - 1, -1, -1):
        s = sizes[j]
        w[j] = f[total - s] - sum(w[i] * f[sizes[i] - s] for i in range(j + 1, len(sizes)))
    return tuple(w)


def _phi_suffixes(total: int, left: Sequence[int], weights: Sequence[int], start: int) -> list[int]:
    """``[_phi_sizes(total, left[b:]) for b in range(start, len(left) + 1)]``
    for a chain shrunk as a draw shrinks it: ``left`` and ``total`` are the
    sizes and the set size that ``weights`` (:func:`_chain_weights`) were
    made for, all less the same number of placed vertices.

    The difference of two sizes does not change when both shrink, so
    neither does ``M`` of :func:`_chain_weights`, and ``_phi_sizes(total,
    left[b:])`` is ``f[total] − Σ_{j≥b} W_j·f[left_j]``; one pass from the
    last set back yields every suffix, one product per set.  A suffix whose
    first size is 0 or less has none, as in :func:`_phi_sizes`.
    """
    f = _FACT
    top = f[total]
    out = [top]
    acc = 0
    for j in range(len(left) - 1, start - 1, -1):
        s = left[j]
        if s <= 0:
            out += [0] * (j - start + 1)
            break
        acc += weights[j] * f[s]
        out.append(top - acc)
    out.reverse()
    return out


# strictly nested forbidden prefix sets X_1 < X_2 < ... < X_l, as vertex masks
Chain = tuple[int, ...]


def fp_chains(t: CliqueTree) -> tuple[Chain, ...]:
    """Per-node forbidden-prefix chains of a rooted clique tree, as vertex
    masks.

    Node ``v`` collects the separators along the root-to-``v`` path that are
    subsets of its clique, in path order; these are automatically nested.
    The root gets the empty chain.
    """
    chains: list[Chain] = [()] * len(t.cliques)
    for x in t.order[1:]:
        c = t.cliques[x]
        kept = [s for s in chains[t.parent[x]] if s & c == s]
        # the kept sets lie in the parent's clique too, so in the separator
        sep = t.separators[x]
        if not (kept and kept[-1] == sep):
            kept.append(sep)
        chains[x] = tuple(kept)
    return tuple(chains)


@dataclass(slots=True)
class CliqueRecord:
    """One clique-tree node of an explored subgraph.

    ``clique`` and ``chain`` (its forbidden prefix sets) are the tree node's
    clique and :func:`fp_chains` entry as built, masks over the root's local
    vertices; ``child_keys`` are the components left undirected once the
    clique is fixed, as masks too, in recording order: ``()`` for a complete
    subgraph, else the :class:`~mectools.subproblems.Components` that
    :func:`explore` made, which run the traversal when first read, as a draw
    reads those of the records it reaches.
    ``phi`` counts the clique's permutations that avoid the chain.  Records
    are equal when these four fields are, child keys in order.
    ``listing`` is the sampler's, kept by the record's first draw in one
    slot that concurrent draws share (see
    :func:`~mectools.sampling.draw_perm`); it takes no part in equality or
    repr.
    """

    clique: int
    chain: Chain
    child_keys: tuple[()] | Components
    phi: int
    listing: tuple | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class _KeyEntry:
    """One explored subgraph: step ``i`` of ``cumulative`` is record ``i``'s
    weight, its ``phi`` times the totals of its child keys, which
    :func:`explore` takes as ``phi`` times the weights of its node's
    regions."""

    records: tuple[CliqueRecord, ...]
    cumulative: tuple[int, ...]
    total: int


@dataclass(frozen=True, eq=False)
class SamplerModel:
    """The explored model of one graph: per explored subgraph, keyed by its
    vertex mask over ``root``'s local vertices, its clique records with
    their cumulative weights and total count.

    Counting reads the root's total; sampling draws from the records.
    """

    root: Uccg
    entries: Dict[Key, _KeyEntry]

    @property
    def root_key(self) -> Key:
        return (1 << self.root.n) - 1

    @property
    def total(self) -> int:
        return self.entries[self.root_key].total


def _region_weights(
    heads: Sequence[Sequence[Region]], entries: Dict[Key, _KeyEntry]
) -> Dict[Region, int]:
    """The weight of every region of one clique tree, given per node as
    ``heads``: the product, over the region's pieces, of the piece's total
    times the weights of the regions it opens, which is the product of the
    totals of every component the region leads to.

    Each directed tree edge is one region and is weighed once.  A region
    leads to more keys than any region it opens, so key-count order is
    dependency order.
    """
    weights: Dict[Region, int] = {}
    for region in sorted((r for near in heads for r in near), key=attrgetter("keys")):
        w = 1
        for x, opens in region.pieces:
            w *= entries[x].total
            for opened in opens:
                w *= weights[opened]
        weights[region] = w
    return weights


def explore(g: Uccg, seed: int | None = None, deadline: float | None = None) -> SamplerModel:
    """Explore every subgraph reachable from ``g`` and evaluate its records.

    Each subgraph is the vertex mask of an induced subgraph of ``g``, and
    each distinct one is explored once: every piece of every region of its
    clique tree is a subgraph to explore.  Subgraphs are then evaluated by
    size, a record's weight being its ``phi`` times the weights of its
    node's regions, so no record's child keys are ordered; each record keeps
    its :class:`~mectools.subproblems.Components`, which know their length
    and run the traversal when first read, and no region outlives the run.  A ``seed`` randomizes clique-tree construction: each
    subgraph's tree is drawn from a generator of its own, seeded from the
    seed and the subgraph's mask, so no tree depends on the order subgraphs
    are explored in; the counts are tree-invariant.  Uses explicit work
    stacks and loops: path-like graphs produce depths proportional to the
    clique count, which would overrun the interpreter stack.  ``deadline``,
    a :func:`time.monotonic` reading, is checked before each clique record
    (never when None); once it has passed, :class:`TimeoutError` says how
    far the run got.
    """
    # mask -> its records, one per clique-tree node in BFS order, and each
    # record's regions (None for a complete subgraph)
    records_of: Dict[Key, tuple[tuple[CliqueRecord, ...], list[list[Region]] | None]] = {}
    subs = [(1 << g.n) - 1]
    seen = set(subs)
    while subs:
        sub = subs.pop()
        # str seeds hash with sha512, the same in every process
        t = clique_tree(g, None if seed is None else random.Random(f"{seed} {sub}"), sub)
        # a complete subgraph leaves nothing once its clique is fixed
        regions = tree_regions(t) if len(t.cliques) > 1 else None
        if regions is not None:
            for near in regions:
                for region in near:
                    for x, _ in region.pieces:
                        if x not in seen:
                            seen.add(x)
                            subs.append(x)
        chains = fp_chains(t)
        records = []
        for idx in t.order:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(f"deadline passed with {len(records_of)} subgraphs explored "
                                   f"and {len(records)} of {len(t.cliques)} records of the next done")
            clique, chain = t.cliques[idx], chains[idx]
            records.append(CliqueRecord(
                clique, chain,
                () if regions is None else components_after_clique(g, clique, sub, regions[idx]),
                _phi_sizes(clique.bit_count(), [s.bit_count() for s in chain]),
            ))
        heads = None if regions is None else [regions[idx] for idx in t.order]
        records_of[sub] = (tuple(records), heads)

    entries: Dict[Key, _KeyEntry] = {}
    # pieces have strictly fewer vertices, so size order is dependency order
    for key in sorted(records_of, key=int.bit_count):
        records, heads = records_of.pop(key)
        if heads is None:
            weights = [r.phi for r in records]
        else:
            region_weight = _region_weights(heads, entries).__getitem__
            weights = [prod(map(region_weight, near), start=r.phi)
                       for r, near in zip(records, heads)]
        cumulative = tuple(accumulate(weights))
        entries[key] = _KeyEntry(records, cumulative, cumulative[-1])
    return SamplerModel(g, entries)


def count_cpdag(g: PartialGraph) -> int:
    """Size of the Markov equivalence class represented by a CPDAG.

    Product over the undirected components.  Raises
    :class:`~mectools.chordal.NotChordalError` if a component is not
    chordal, then :class:`~mectools.graphs.NotCpdagError` if ``g`` is not a
    CPDAG.
    """
    total = 1
    for comp in _split(g):
        total *= explore(comp).total
    return total


@dataclass(frozen=True)
class CountStats:
    """Count plus exploration bookkeeping for one connected chordal graph."""

    count: int
    explored: int
    max_cliques: int


def count_with_stats(g: Uccg, seed: int | None = None) -> CountStats:
    """The number of AMOs of a connected chordal graph, with how many
    distinct subgraphs the run explored (the input included) and how many
    clique-tree nodes the input has.  ``seed`` randomizes clique-tree
    construction (the count is tree-invariant)."""
    model = explore(g, seed)
    return CountStats(
        count=model.total,
        explored=len(model.entries),
        max_cliques=len(model.entries[model.root_key].records),
    )
