"""Uniform sampling of acyclic moral orientations.

The sampler reads the model that the counter builds
(:func:`~mectools.counting.explore`, exported here as ``precount``): per
explored subgraph, each clique-tree node's weight (its permutation count
times the counts of its components).  A sample walks these records: draw a
clique proportional to its weight, draw an admissible permutation of it,
recurse on the components.  All weights are exact big integers; clique draws use cumulative
sums with binary search rather than a real-valued alias table, which would
lose exactness to rounding.  Random numbers come from a caller-supplied
``random.Random`` (Mersenne Twister), so fixed seeds reproduce exact sample
sequences.  A CPDAG draw orients every component straight from its drawn
ordering and builds one DAG.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from .counting import (
    CliqueRecord,
    FpChain,
    Key,
    SamplerModel,
    _PermTable,
    explore as precount,
    factorial,
    validate_chain,
)
from .graphs import Dag, PartialGraph, Uccg, orient_by_ordering, undirected_components


class ModelMismatchError(ValueError):
    """The sampler model was not built for the graph it is used with."""


@dataclass(frozen=True)
class SampleResult:
    """A sampled orientation: the drawn topological ordering (local vertices)
    and the DAG it induces."""

    tau: tuple[int, ...]
    dag: Dag


def draw_clique(model: SamplerModel, key: Key, rng: random.Random) -> CliqueRecord:
    """Draw one clique record with probability weight/total, exactly."""
    entry = model.entries.get(key)
    if entry is None:
        raise KeyError(f"no sampler entry for key {key}")
    r = rng.randrange(entry.total)
    return entry.records[bisect_right(entry.cumulative, r)]


def perm_step_weights(
    remaining: Sequence[int],
    suffix: int,
    drawn: int,
    table: _PermTable,
) -> list[tuple[int, int, int]]:
    """Weights for the next permutation element.

    Returns (vertex, weight, next suffix) per remaining vertex: the weight is
    the number of admissible completions if the vertex is placed next.  A
    vertex inside some chain set shrinks the active suffix to the smallest set
    containing it; a vertex outside all of them clears the chain.
    """
    ell = table.ell
    rows = table.rows
    first_idx = table.first_idx
    free_weight = factorial(len(remaining) - 1)
    out = []
    for v in remaining:
        j = first_idx.get(v, ell)
        if j < suffix:
            j = suffix
        weight = rows[j][drawn + 1] if j < ell else free_weight
        out.append((v, weight, j))
    return out


def draw_perm(
    clique: Iterable[int],
    chain: FpChain | Sequence[Iterable[int]],
    rng: random.Random,
    table: _PermTable | None = None,
) -> tuple[int, ...]:
    """Uniform permutation of ``clique`` having no chain element as a prefix.

    The chain must be strictly nested and consist of proper subsets (then at
    least one admissible permutation exists).  Each position is drawn with
    exact integer weights proportional to the number of completions.
    """
    items = sorted(clique)
    if table is None:
        sets = chain.sets if isinstance(chain, FpChain) else tuple(chain)
        chain_sets = validate_chain(frozenset(items), sets)
        table = _PermTable(len(items), chain_sets)

    remaining = list(items)
    out: list[int] = []
    suffix = 0
    drawn = 0
    ell = table.ell
    while remaining:
        if suffix >= ell:
            rng.shuffle(remaining)
            out.extend(remaining)
            break
        weighted = perm_step_weights(remaining, suffix, drawn, table)
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


def _draw_labels(model: SamplerModel, rng: random.Random) -> list[int]:
    """A uniformly drawn topological ordering of the model's graph, in
    global labels.

    Assembles it clique by clique; components are appended in their
    recorded order, which respects the edge directions forced between them.
    """
    tau: list[int] = []
    stack: list[Key] = [model.root_key]
    while stack:
        key = stack.pop()
        record = draw_clique(model, key, rng)
        table = model.table_for(key, record)
        tau.extend(draw_perm(record.clique, record.chain, rng, table))
        stack.extend(reversed(record.child_keys))
    return tau


def sample_amo(g: Uccg, model: SamplerModel, rng: random.Random) -> SampleResult:
    """Draw one orientation of ``g`` uniformly among its AMOs."""
    if model.root is not g and model.root != g:
        raise ModelMismatchError("model was precomputed for a different graph")
    tau = tuple(g.local_of(lab) for lab in _draw_labels(model, rng))
    return SampleResult(tau, orient_by_ordering(g, tau))


def precount_cpdag(g: PartialGraph, seed: int | None = None) -> list[SamplerModel]:
    """One sampler model per undirected component of the CPDAG."""
    return [precount(comp, seed) for comp in undirected_components(g)]


def sample_cpdag(
    g: PartialGraph,
    models: Sequence[SamplerModel],
    rng: random.Random,
    _components: Sequence[Uccg] | None = None,
) -> Dag:
    """Uniform member of the Markov equivalence class represented by ``g``.

    Keeps the directed edges and orients every undirected component with an
    independently drawn AMO: each undirected edge points from the earlier
    to the later end of its component's drawn ordering.
    """
    comps = list(_components) if _components is not None else undirected_components(g)
    if len(models) != len(comps) or any(
        m.root is not c and m.root != c for m, c in zip(models, comps)
    ):
        raise ModelMismatchError("models do not match the undirected components")
    heads = list(g.directed_out)
    pos = [0] * g.n
    for comp, model in zip(comps, models):
        for i, v in enumerate(_draw_labels(model, rng)):
            pos[v] = i
        labels = comp.labels
        for u, nbrs in zip(labels, comp.adj):
            pu = pos[u]
            later = tuple(labels[w] for w in nbrs if pos[labels[w]] > pu)
            if later:
                heads[u] = tuple(sorted(heads[u] + later))
    return Dag(g.n, tuple(heads))
