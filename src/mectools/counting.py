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

:func:`explore` runs this once, for the count and the sampler alike: a
complete subgraph of k vertices, as most are, counts k! and has no record,
and every node of any other is one record, in the :class:`SamplerModel` the
sampler draws from; a record runs the traversal for its subgraphs' order
when a draw first reads it.
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


def _chain_weights(total: int, sizes: Sequence[int]) -> tuple[int, ...]:
    """The weights ``W`` of :func:`_phi`'s closed form ``f[total] − Σ_j
    W_j·f[s_j]`` for the chain sizes ``sizes`` (strictly increasing, each
    below ``total``).

    A permutation with a forbidden prefix has a first one, ``X_i``: there
    are ``f[total − s_i]·g_i``, ``g_i`` the orders of ``X_i`` with no
    earlier set as a prefix, so ``Σ_{j≤i} M_ij·g_j = f[s_i]`` with the unit
    lower-triangular ``M_ij = f[s_i − s_j]``.  Then ``W_j = Σ_{i≥j} f[total
    − s_i]·C_ij``, ``C`` the inverse of ``M``, found from the last set back
    as ``W_j = f[total − s_j] − Σ_{i>j} W_i·f[s_i − s_j]``.
    """
    factorial(total)
    f = _FACT
    w = [0] * len(sizes)
    for j in range(len(sizes) - 1, -1, -1):
        s = sizes[j]
        acc = f[total - s]
        for i in range(j + 1, len(sizes)):
            acc -= w[i] * f[sizes[i] - s]
        w[j] = acc
    return tuple(w)


def _phi(total: int, sizes: Sequence[int]) -> int:
    """Permutations of a ``total``-set that avoid a nested chain of prefix
    sets of the sizes ``sizes`` (strictly increasing, each in ``1..total −
    1``): ``f[total] − Σ_j W_j·f[s_j]`` over :func:`_chain_weights`, which
    is ``f[total]`` for no chain."""
    if not sizes:
        return factorial(total)
    weights = _chain_weights(total, sizes)
    f = _FACT
    phi = f[total]
    for w, s in zip(weights, sizes):
        phi -= w * f[s]
    return phi


def _phi_suffixes(total: int, left: Sequence[int], weights: Sequence[int], start: int) -> list[int]:
    """The permutation counts of a chain's suffixes ``left[b:]``, ``b`` from
    ``start`` to ``len(left)``, as a draw shrinks the chain: ``left`` and
    ``total`` are the sizes and set size ``weights`` (:func:`_chain_weights`)
    were made for, all less the same number of placed vertices.

    The difference of two sizes does not change when both shrink, so
    neither does ``M`` of :func:`_chain_weights`, and the suffix from ``b``
    counts ``f[total] − Σ_{j≥b} W_j·f[left_j]``, as in :func:`_phi`; one pass
    from the last set back yields every suffix, one product per set.  A
    suffix whose first set is placed (size 0 or less) counts 0.
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
    clique is fixed, as masks too, in recording order: the
    :class:`~mectools.subproblems.Components` that :func:`explore` made,
    which run the traversal when first read, as a draw reads those of the
    records it reaches.
    ``phi`` counts the clique's permutations that avoid the chain.  Records
    are equal when these four fields are, child keys in order.
    ``listing`` is the sampler's, kept by the record's first draw in one
    slot that concurrent draws share (see
    :func:`~mectools.sampling.draw_perm`); it takes no part in equality or
    repr.
    """

    clique: int
    chain: Chain
    child_keys: Components
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
    """The explored model of one graph, keyed by vertex masks over
    ``root``'s local vertices: every explored subgraph's count in
    ``totals``, and the clique records with their cumulative weights of
    every one that is not complete in ``entries``, which sampling draws.
    ``listings`` are the sampler's: a complete subgraph's vertices in
    increasing order, kept by its first draw (see
    :func:`~mectools.sampling._draw_order`)."""

    root: Uccg
    entries: Dict[Key, _KeyEntry]
    totals: Dict[Key, int]
    listings: Dict[Key, tuple] = field(default_factory=dict, init=False, repr=False)

    @property
    def root_key(self) -> Key:
        return (1 << self.root.n) - 1

    @property
    def total(self) -> int:
        return self.totals[self.root_key]


def _region_weights(heads: Sequence[Sequence[Region]], totals: Dict[Key, int]) -> Dict[Region, int]:
    """The weight of every region of one clique tree, given per node as
    ``heads``: the product, over the region's pieces, of the piece's total
    in ``totals`` times the weights of the regions it opens, which is the
    product of the totals of every component the region leads to.

    Each directed tree edge is one region and is weighed once.  A region
    leads to more keys than any region it opens, so key-count order is
    dependency order.
    """
    weights: Dict[Region, int] = {}
    for region in sorted((r for near in heads for r in near), key=attrgetter("keys")):
        w = 1
        for x, opens in region.pieces:
            w *= totals[x]
            for opened in opens:
                w *= weights[opened]
        weights[region] = w
    return weights


def explore(g: Uccg, seed: int | None = None, deadline: float | None = None) -> SamplerModel:
    """Explore every subgraph reachable from ``g`` and evaluate its records.

    Each subgraph is the vertex mask of an induced subgraph of ``g``, and
    each distinct one is explored once: every piece of every region of its
    clique tree is a subgraph to explore.  A complete one, as most are, gets
    its total ``k!`` and no record.  The others are then evaluated by size,
    a record's weight being its ``phi`` times the weights of its node's
    regions, so no record's child keys are ordered; each record keeps its
    :class:`~mectools.subproblems.Components`, which know their length and
    run the traversal when first read, and no region outlives the run.  A
    ``seed`` randomizes clique-tree construction: each subgraph's tree is
    drawn from a generator of its own, seeded from the seed and the
    subgraph's mask, so no tree depends on the order subgraphs are explored
    in; the counts are tree-invariant.  Uses explicit work stacks and loops:
    path-like graphs produce depths proportional to the clique count, which
    would overrun the interpreter stack.  ``deadline``, a
    :func:`time.monotonic` reading, is checked before each clique record
    (never when None); once it has passed, :class:`TimeoutError` says how
    many subgraphs the run explored, complete ones included.
    """
    # mask -> its records, one per clique-tree node in BFS order, and each
    # record's regions, for every subgraph that is not complete
    records_of: Dict[Key, tuple[tuple[CliqueRecord, ...], list[list[Region]]]] = {}
    totals: Dict[Key, int] = {}
    subs = [(1 << g.n) - 1]
    seen = set(subs)
    while subs:
        sub = subs.pop()
        # str seeds hash with sha512, the same in every process
        t = clique_tree(g, None if seed is None else random.Random(f"{seed} {sub}"), sub)
        if len(t.cliques) == 1:
            # a complete subgraph leaves nothing once its clique is fixed
            totals[sub] = factorial(sub.bit_count())
            continue
        regions = tree_regions(t)
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
                raise TimeoutError(f"deadline passed with {len(totals) + len(records_of)} subgraphs "
                                   f"explored and {len(records)} of {len(t.cliques)} records of the "
                                   "next done")
            clique, chain = t.cliques[idx], chains[idx]
            records.append(CliqueRecord(
                clique, chain, components_after_clique(g, clique, sub, regions[idx]),
                _phi(clique.bit_count(), [s.bit_count() for s in chain]),
            ))
        records_of[sub] = (tuple(records), [regions[idx] for idx in t.order])

    entries: Dict[Key, _KeyEntry] = {}
    # pieces have strictly fewer vertices, so size order is dependency order
    for key in sorted(records_of, key=int.bit_count):
        records, heads = records_of.pop(key)
        region_weight = _region_weights(heads, totals).__getitem__
        cumulative = tuple(accumulate(prod(map(region_weight, near), start=r.phi)
                                      for r, near in zip(records, heads)))
        totals[key] = cumulative[-1]
        entries[key] = _KeyEntry(records, cumulative, cumulative[-1])
    return SamplerModel(g, entries, totals)


def count_cpdag(g: PartialGraph) -> int:
    """Size of the Markov equivalence class represented by a CPDAG.

    Product of :func:`explore`'s totals over the undirected components ``g``
    keeps, so a count after :func:`~mectools.graphs.undirected_components`
    splits nothing.  Raises :class:`~mectools.chordal.NotChordalError` if a
    component is not chordal, then :class:`~mectools.graphs.NotCpdagError`
    if ``g`` is not a CPDAG.
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
    root = model.entries.get(model.root_key)
    return CountStats(
        count=model.total,
        explored=len(model.totals),
        max_cliques=1 if root is None else len(root.records),
    )
