"""The data the library builds for its internal steps passes the checks
those steps no longer run.

``components_after_clique`` trusts its clique tree, ``draw_perm`` its chain,
``draw_clique`` its key, ``refine_traversal`` its initial blocks and
``undirected_components`` the row order of its graph.  Here every input of
that kind, built while exploring a graph with and without a seed, is held to
the oracle check in ``helpers``.

Core claims:
    - every record of an explored subgraph has a clique of that subgraph and
      a chain strictly nested and proper in that clique; every child key is
      an entry of the model
    - every block sequence passed to the traversal partitions the vertices
      of an explored subgraph
    - every explored subgraph is a vertex mask of the explored graph itself,
      explored once, and its induced rows, like those of every split
      component, pass the PartialGraph constructor unchanged
"""

from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from mectools import PartialGraph, Uccg, parse_graph, precount, undirected_components
from mectools import chordal, counting, subproblems
from mectools._partition import mask_bits

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@contextmanager
def recording(module, name, calls):
    """Append the positional arguments of every call of ``module.name``."""
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    setattr(module, name, spy)
    try:
        yield
    finally:
        setattr(module, name, real)


def assert_passes_constructor(h: Uccg) -> None:
    pg = h.as_partial_graph()
    assert PartialGraph(pg.n, pg.undirected, pg.directed_out) == pg


def check_explored(g: Uccg, seed) -> None:
    explored = []
    traversals = []
    with recording(counting, "clique_tree", explored), recording(
        chordal, "refine_traversal", traversals
    ), recording(subproblems, "refine_traversal", traversals):
        model = precount(g, seed)
    assert all(args[0] is g for args in explored)
    subs = [args[2] for args in explored]
    assert len(subs) == len(set(subs)) and set(subs) == model.totals.keys()

    for adj, blocks, *_ in traversals:
        assert adj is g.adj
        universe = 0
        for blk in blocks:
            universe |= blk
        assert universe in model.totals
        helpers.check_blocks(universe, blocks)

    for key in model.totals:
        h = helpers.induced_subgraph(g, helpers.labels_of(g, key))
        assert_passes_constructor(h)
        entry = model.entries.get(key)
        if entry is None:
            # a complete subgraph has no record: its one clique is all of h
            helpers.check_clique(h, range(h.n))
            continue
        # records are in the root's local vertices; h numbers the key's bits
        local = {v: i for i, v in enumerate(mask_bits(key))}
        for record in entry.records:
            clique, chain = helpers.record_vertices(record)
            helpers.check_clique(h, [local[v] for v in clique])
            helpers.validate_chain(frozenset(clique), chain)
            assert all(child in model.totals for child in record.child_keys)


def test_explored_inputs_pass_their_checks_on_the_oracle_corpora():
    for g in helpers.oracle_corpus():
        for seed in (None, 0, 1):
            check_explored(g, seed)


@PROPERTY
@given(helpers.chordal_graphs(), st.one_of(st.none(), st.integers(0, 2**16)))
def test_explored_inputs_pass_their_checks(g, seed):
    check_explored(g, seed)


@PROPERTY
@given(st.lists(helpers.chordal_graphs(), min_size=1, max_size=3), st.randoms(use_true_random=False))
def test_split_components_pass_the_constructor(parts, rnd):
    # disjoint chordal parts on shuffled ids, written out, parsed and split
    n = sum(p.n for p in parts)
    ids = list(range(n))
    rnd.shuffle(ids)
    edges = []
    base = 0
    for p in parts:
        edges += [(ids[base + u], ids[base + v]) for u, v in p.edges()]
        base += p.n
    # through the parser, whose rows skip the constructor
    comps = undirected_components(parse_graph(PartialGraph.from_edges(n, edges).serialize()))
    assert sorted(c.n for c in comps) == sorted(p.n for p in parts)
    for c in comps:
        assert_passes_constructor(c)
