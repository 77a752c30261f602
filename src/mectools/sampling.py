"""Uniform sampling of acyclic moral orientations.

The sampler reads the model that the counter builds
(:func:`~mectools.counting.explore`, which :func:`precount` returns): per
explored subgraph that is not complete, the clique-tree nodes' records and
running weight sums (a weight is a node's permutation count times the counts
of its components).  A sample walks these records: draw a clique
proportional to its weight, draw an admissible permutation of it, recurse on
the components, of which a complete one is shuffled.  A record orders its
components and lists its clique's vertices when a draw first reads it.
All weights are exact big integers; clique draws use cumulative sums with
binary search rather than a real-valued alias table, which would lose
exactness to rounding.  Random numbers come from a caller-supplied
``random.Random`` (Mersenne Twister), so fixed seeds reproduce exact sample
sequences.  Every draw is a topological ordering per undirected component,
in its local vertices; :func:`~mectools.graphs.orient_by_ordering` takes
the components and their orderings as drawn and turns them into the DAG.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import groupby
from typing import Sequence

from ._partition import mask_bits
from .counting import (CliqueRecord, Key, SamplerModel, _chain_weights, _phi_suffixes, explore,
                       factorial)
from .graphs import Dag, PartialGraph, Uccg, _require_cpdag, orient_by_ordering


class ModelMismatchError(ValueError):
    """The sampler model was not built for the graph it is used with."""


def precount(g: Uccg, seed: int | None = None) -> SamplerModel:
    """The model :func:`~mectools.counting.explore` builds for ``g``: no
    record's child keys are ordered until a draw first reads them.  ``seed``
    randomizes clique-tree construction."""
    return explore(g, seed)


def draw_clique(model: SamplerModel, key: Key, rng: random.Random) -> CliqueRecord:
    """Draw one clique record with probability weight/total, exactly."""
    entry = model.entries[key]
    r = rng.randrange(entry.total)
    return entry.records[bisect_right(entry.cumulative, r)]


def _listing(record: CliqueRecord) -> tuple:
    """What a draw of ``record`` reads of its clique: the vertices in
    increasing order and, for a chained record, the runs of their classes
    (a vertex's class is the smallest chain set that holds it, the chain's
    length if none) as two tuples, each run's class and its length, and the
    chain's :func:`~mectools.counting._chain_weights`."""
    vertices = tuple(mask_bits(record.clique))
    chain = record.chain
    if not chain:
        return vertices
    ell = len(chain)
    runs = [(c, len(list(same))) for c, same in
            groupby(ell - sum(x >> v & 1 for x in chain) for v in vertices)]
    classes, counts = zip(*runs)
    return vertices, classes, counts, _chain_weights(len(vertices), [x.bit_count() for x in chain])


def draw_perm(record: CliqueRecord, rng: random.Random) -> tuple[int, ...]:
    """Uniform permutation of the record's clique with no chain set as prefix.

    The chain must be strictly nested and consist of proper subsets of the
    clique (then at least one admissible permutation exists), as
    :func:`~mectools.counting.fp_chains` builds it, and ``phi`` must count
    those permutations, as :func:`~mectools.counting.explore` has it;
    neither is checked again here.  The record's first draw keeps its
    :func:`_listing` in ``record.listing``, which later draws copy.  A
    placed vertex leaves the chain active from the smallest active set that
    holds it (a vertex in no active set clears the chain), so each position
    is drawn with exact integer weights, the numbers of completions, which
    depend only on that suffix and the chain sizes: each step reads them
    off the closed form of :func:`~mectools.counting._phi_suffixes`, with
    the weights the listing keeps.  A vertex's weight is its class's, so
    the pick walks the runs of one class in vertex order, as a scan of
    every remaining vertex would meet them.
    """
    listing = record.listing
    if listing is None:
        listing = record.listing = _listing(record)
    chain = record.chain
    if not chain:  # every order is admissible
        remaining = list(listing)
        rng.shuffle(remaining)
        return tuple(remaining)
    vertices, classes, counts, weights = listing
    remaining = list(vertices)
    counts = list(counts)
    ell = len(chain)
    sizes = [x.bit_count() for x in chain]
    out: list[int] = []
    suffix = 0
    # φ of the remaining vertices under the active chain suffix: the whole
    # chain first, then the weight of the run that holds the vertex drawn
    phi = record.phi
    while suffix < ell:
        left = [s - len(out) - 1 for s in sizes]
        by_suffix = _phi_suffixes(len(remaining) - 1, left, weights, suffix)
        # a vertex's weight, indexed by its class; a set before the active
        # suffix counts as its first
        weight = by_suffix[:1] * suffix + by_suffix
        r = rng.randrange(phi)
        pos = 0
        # a run emptied by earlier picks, or of weight 0, spans nothing
        for run, c in enumerate(classes):
            n = counts[run]
            w = weight[c]
            span = n * w
            if r < span:
                pos += r // w
                break
            r -= span
            pos += n
        counts[run] -= 1
        out.append(remaining.pop(pos))
        phi = w
        suffix = max(suffix, c)
    rng.shuffle(remaining)
    out.extend(remaining)
    return tuple(out)


def _draw_order(model: SamplerModel, rng: random.Random) -> list[int]:
    """A uniformly drawn topological ordering of the model's graph, in its
    root's local vertices.

    Assembles it clique by clique; components are appended in their
    recorded order, which respects the edge directions forced between them.
    A complete subgraph, which has no entry, draws as its one record of k!
    would: ``randrange(k!)``, then a shuffle of its vertices, which its
    first draw lists in the model's ``listings`` for later draws to copy.
    """
    entries, listings = model.entries, model.listings
    tau: list[int] = []
    stack: list[Key] = [model.root_key]
    while stack:
        key = stack.pop()
        if not key & (key - 1):
            # one vertex: the draw of k! = 1, kept for the stream; its
            # one-item shuffle draws nothing
            rng.randrange(1)
            tau.append(key.bit_length() - 1)
            continue
        if key not in entries:
            listing = listings.get(key)
            if listing is None:
                listing = listings[key] = tuple(mask_bits(key))
            vertices = list(listing)
            rng.randrange(factorial(len(vertices)))
            rng.shuffle(vertices)
            tau.extend(vertices)
            continue
        record = draw_clique(model, key, rng)
        tau.extend(draw_perm(record, rng))
        stack.extend(reversed(record.child_keys))
    return tau


def sample_amo(g: Uccg, model: SamplerModel, rng: random.Random) -> Dag:
    """Draw one orientation of ``g`` uniformly among its AMOs, on ``g``'s
    local vertices."""
    if model.root is not g and model.root != g:
        raise ModelMismatchError("model was precomputed for a different graph")
    return orient_by_ordering(g.as_partial_graph(), [g], [_draw_order(model, rng)])


def sample_cpdag(
    g: PartialGraph,
    models: Sequence[SamplerModel],
    rng: random.Random,
    _components: Sequence[Uccg] | None = None,
) -> Dag:
    """Uniform member of the Markov equivalence class represented by ``g``.

    Keeps the directed edges and orients every undirected component with an
    independently drawn AMO: the models' roots and their orderings, drawn in
    model order in the roots' local vertices, go to
    :func:`~mectools.graphs.orient_by_ordering`.  A ``g`` that is not a
    CPDAG raises :class:`~mectools.graphs.NotCpdagError` first.  Then each
    model's root must be ``g``'s component in its place, in the split ``g``
    keeps (see :func:`~mectools.graphs.undirected_components`), which costs
    a draw nothing measurable after ``g``'s first split; a component that is
    not chordal raises :class:`~mectools.chordal.NotChordalError`.  The
    private ``_components``, which the benchmark passes, replaces that split.
    """
    _require_cpdag(g)
    comps = g._components if _components is None else _components
    if len(models) != len(comps) or not all(
        m.root is c or m.root == c for m, c in zip(models, comps)
    ):
        raise ModelMismatchError("models do not match the undirected components")
    # as tuples of ints, which the collector stops tracking, not as lists
    # that each collection during the walk would move to an older generation
    orders = [tuple(_draw_order(model, rng)) for model in models]
    return orient_by_ordering(g, [model.root for model in models], orders)
