"""Components left undirected after fixing a clique prefix.

Core claims:
    - the clique-set and clique-permutation variants agree for every clique
      and every permutation
    - the output matches the definition computed by unioning enumerated
      orientations (small graphs)
    - outputs are disjoint connected chordal graphs covering V minus the
      clique
    - the number of components read off a clique tree is the traversal's,
      and a record's components are the traversal's, in its order, for
      every node of every clique tree an exploration builds, seeded or not
    - a node's components know their length before they are ordered, run
      the traversal once, on the first read, and keep its order, also when
      two readers race; every record is a plain record, a count and a
      precount order no components, a draw orders each record it reads once,
      threads that share a fresh model draw the streams of an ordered one
      and leave each record they listed with its whole listing, and a model
      holds no region
    - an exploration, seeded or not, sweeps each subgraph that is not
      complete once; a count sweeps each component's root only in the
      split, and a second exploration of one graph object sweeps no root
    - a checked graph keeps the cliques of its chordality check, so its
      whole-graph clique pass runs once, and an exploration keeps nothing
      more on the graph
"""

import gc
import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from mectools import (
    PartialGraph,
    Uccg,
    chordal,
    count_cpdag,
    counting,
    graphs,
    gen_interval,
    gen_peo,
    gen_subtree,
    is_chordal,
    precount,
    sample_cpdag,
    sampling,
    subproblems,
    undirected_components,
)
from mectools._partition import refine_traversal
from mectools.cli import main
from mectools.chordal import clique_tree, lbfs
from mectools.subproblems import (
    _emit_components,
    components_after_clique,
    components_by_traversal,
    tree_regions,
)


def as_label_sets(comps):
    return {c.labels for c in comps}


def mask_label_sets(g, masks):
    return {helpers.labels_of(g, h) for h in masks}


class TestComponentsAfterClique:
    def test_seven_vertex_chain_big_clique(self):
        g = helpers.clique_chain_7()
        comps = components_by_traversal(g, 0b1111)
        assert mask_label_sets(g, comps) == {(4, 5), (6,)}

    def test_three_clique_chain_first_clique(self):
        g = helpers.three_clique_chain()
        comps = components_by_traversal(g, 0b111)
        assert mask_label_sets(g, comps) == {(3, 4, 5)}
        (path,) = comps
        sub = helpers.induced_subgraph(g, helpers.labels_of(g, path))
        assert sorted(sub.edges()) == [(0, 1), (1, 2)]

    def test_complete_graph_whole_clique(self):
        g = helpers.complete_graph(5)
        assert components_by_traversal(g, 0b11111) == []

    def test_not_a_clique(self):
        # the step trusts its clique; the check every library-built clique
        # passes (see test_trusted_inputs) rejects this one
        with pytest.raises(helpers.NotCliqueError):
            helpers.check_clique(helpers.path_graph(3), [0, 2])

    def test_matches_union_of_orientations(self):
        for g in helpers.random_chordal_corpus(30, 2, 8, seed=41, max_edges=14):
            for clique in helpers.brute_maximal_cliques(g):
                got = mask_label_sets(g, components_by_traversal(g, helpers.vertex_mask(clique)))
                assert got == helpers.union_components_oracle(g, sorted(clique))

    def test_outputs_partition_rest_and_are_chordal(self):
        for g in helpers.random_chordal_corpus(25, 2, 12, seed=43):
            for clique in helpers.brute_maximal_cliques(g):
                comps = [
                    helpers.induced_subgraph(g, helpers.labels_of(g, h))
                    for h in components_by_traversal(g, helpers.vertex_mask(clique))
                ]
                labels = [lab for c in comps for lab in c.labels]
                assert len(labels) == len(set(labels))
                expected = {g.labels[v] for v in range(g.n)} - {
                    g.labels[v] for v in clique
                }
                assert set(labels) == expected
                for c in comps:
                    assert is_chordal(c)

    def test_tie_break_invariance(self):
        for g in helpers.random_chordal_corpus(10, 3, 10, seed=47):
            full = (1 << g.n) - 1
            for clique in helpers.brute_maximal_cliques(g):
                base = mask_label_sets(g, components_by_traversal(g, helpers.vertex_mask(clique)))
                kmask = helpers.vertex_mask(clique)
                for seed in range(5):
                    _, records = refine_traversal(
                        g.adj,
                        [kmask, full ^ kmask],
                        rng=random.Random(seed),
                        skip_record=kmask,
                        masks=g.adj_masks,
                    )
                    assert mask_label_sets(g, _emit_components(g, records)) == base


class TestComponentsAfterPermutation:
    def test_seven_vertex_chain_reversed_clique(self):
        g = helpers.clique_chain_7()
        comps = helpers.components_after_permutation(g, (3, 2, 1, 0))
        assert as_label_sets(comps) == {(4, 5), (6,)}

    def test_single_vertex_sources(self):
        # one-vertex prefixes generalize to picking any source vertex
        g = helpers.three_clique_chain()
        for s in range(g.n):
            got = as_label_sets(helpers.components_after_permutation(g, (s,)))
            assert got == helpers.union_components_oracle(g, [s])

    def test_complete_graph_any_permutation(self):
        g = helpers.complete_graph(4)
        for perm in itertools.permutations(range(4)):
            assert helpers.components_after_permutation(g, perm) == []

    def test_equals_clique_variant_everywhere(self):
        for g in helpers.random_chordal_corpus(20, 2, 9, seed=53, max_clique=5):
            cliques = set()
            for mc in helpers.brute_maximal_cliques(g):
                for r in range(1, len(mc) + 1):
                    cliques.update(map(frozenset, itertools.combinations(sorted(mc), r)))
            for clique in cliques:
                base = mask_label_sets(g, components_by_traversal(g, helpers.vertex_mask(clique)))
                for perm in itertools.permutations(sorted(clique)):
                    assert (
                        as_label_sets(helpers.components_after_permutation(g, perm)) == base
                    )

    def test_not_a_clique(self):
        with pytest.raises(helpers.NotCliqueError):
            helpers.components_after_permutation(helpers.path_graph(4), (0, 3))


def assert_child_keys_match_the_traversal(g, seed) -> int:
    """Every record of every subgraph explored from ``g`` holds, in order,
    the components the traversal finds after its clique; returns how many
    records were read off a clique tree."""
    read = 0
    for key, entry in precount(g, seed).entries.items():
        for r in entry.records:
            want = components_by_traversal(g, r.clique, key)
            # the length comes from the regions, before any ordering
            assert len(r.child_keys) == len(want)
            assert r.child_keys == tuple(want)
            read += len(entry.records) > 1
    return read


class TestChildKeysFromTheTree:
    def test_every_record_matches_the_traversal_on_the_oracle_corpus(self):
        read = 0
        for g in helpers.oracle_corpus():
            for seed in (None, 0, 1):
                read += assert_child_keys_match_the_traversal(g, seed)
        assert read > 400

    def test_every_record_matches_the_traversal_on_generated_graphs(self):
        graphs = [gen_interval(80, 1), gen_subtree(60, 4, 2), gen_peo(80, 3, 3), gen_peo(60, 1, 4)]
        read = 0
        for g in graphs:
            for seed in (None, 5):
                read += assert_child_keys_match_the_traversal(g, seed)
        assert read > 300

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(helpers.chordal_graphs(), st.one_of(st.none(), st.integers(0, 2**16)))
    def test_every_record_matches_the_traversal(self, g, seed):
        assert_child_keys_match_the_traversal(g, seed)

    def test_every_node_of_a_seeded_tree_matches_the_traversal(self):
        # nodes of whole-graph trees, rooted and swept at random, beyond
        # those an exploration happens to build
        for g in helpers.random_chordal_corpus(20, 4, 30, seed=83):
            for seed in range(3):
                t = clique_tree(g, random.Random(seed))
                if len(t.cliques) == 1:
                    continue
                root = (1 << g.n) - 1
                for clique, near in zip(t.cliques, tree_regions(t)):
                    want = components_by_traversal(g, clique)
                    comps = components_after_clique(g, clique, root, near)
                    assert len(comps) == len(want)
                    assert list(comps) == want

    def test_blocks_of_equal_labels_come_by_lowest_vertex(self):
        # the star K_{1,4} on centre 2: fixing the edge {2, 0} leaves the
        # three leaves, one block of label {2}, by increasing vertex
        g = Uccg.from_edges(range(5), [(2, 0), (2, 1), (2, 3), (2, 4)])
        t = clique_tree(g)
        heads = tree_regions(t)[t.cliques.index(0b00101)]
        comps = components_after_clique(g, 0b00101, 0b11111, heads)
        assert len(comps) == 3
        assert list(comps) == [0b00010, 0b01000, 0b10000]


def ordering_spy(monkeypatch) -> list[int]:
    """The cliques whose components are ordered from now on, one per
    traversal a ``Components`` runs."""
    calls: list[int] = []
    real = subproblems.components_by_traversal

    def spy(g, clique, sub=None):
        calls.append(clique)
        return real(g, clique, sub)

    monkeypatch.setattr(subproblems, "components_by_traversal", spy)
    return calls


class TestComponents:
    def nodes(self):
        """Every node of an unseeded and a seeded tree of two graphs, as
        the arguments of ``components_after_clique``, with the traversal's
        components."""
        for g in (gen_subtree(60, 4, 2), gen_interval(40, 1)):
            root = (1 << g.n) - 1
            for seed in (None, 3):
                t = clique_tree(g, None if seed is None else random.Random(seed))
                for clique, near in zip(t.cliques, tree_regions(t)):
                    yield (g, clique, root, near), components_by_traversal(g, clique)

    def test_the_length_is_known_before_any_ordering(self, monkeypatch):
        calls = ordering_spy(monkeypatch)
        for args, want in self.nodes():
            assert len(components_after_clique(*args)) == len(want)
        assert calls == []

    def test_the_order_is_computed_once_and_kept(self, monkeypatch):
        calls = ordering_spy(monkeypatch)
        nodes = list(self.nodes())
        for args, want in nodes:
            comps = components_after_clique(*args)
            assert list(comps) == want
            # the ordered tuple is kept in its slot, and read again from it
            assert comps._keys is comps.ordered() == tuple(want)
            assert list(comps) == want
            assert list(reversed(comps)) == want[::-1]
        assert calls == [args[1] for args, _ in nodes]

    def test_readers_that_race_all_read_the_order(self):
        # more readers than cores, switching threads as often as the
        # interpreter lets them: whichever of them orders, each reads a
        # whole order
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for args, want in self.nodes():
                comps = components_after_clique(*args)
                got = []
                start = threading.Barrier(8, timeout=10)

                def read():
                    start.wait()
                    got.append(comps.ordered())

                readers = [threading.Thread(target=read) for _ in range(start.parties)]
                for t in readers:
                    t.start()
                for t in readers:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in readers)
                assert got == [tuple(want)] * len(readers)
        finally:
            sys.setswitchinterval(old)

    def test_every_record_is_a_clique_record_and_compares_its_keys_in_order(self, monkeypatch):
        g = gen_subtree(60, 4, 2)
        calls = ordering_spy(monkeypatch)
        model = counting.explore(g)
        assert calls == []
        again = counting.explore(g)
        assert all(type(r) is counting.CliqueRecord
                   for e in model.entries.values() for r in e.records)
        records = [
            (r, components_by_traversal(g, r.clique, k))
            for k, e in model.entries.items() for r in e.records if len(e.records) > 1
        ]
        # an explored record holds its Components, whose length is known
        # before they are ordered, and which are ordered on the first read
        assert all(len(r.child_keys) == len(want) for r, want in records) and calls == []
        for r, want in records:
            assert tuple(r.child_keys) == tuple(want) == tuple(r.child_keys)
        assert len(calls) == len(records)
        # records compare their child keys in order, whatever holds them
        assert again.entries == model.entries and len(calls) == 2 * len(records)
        r = max((r for r, _ in records), key=lambda r: len(r.child_keys))
        keys = tuple(r.child_keys)
        swapped = counting.CliqueRecord(r.clique, r.chain, keys[::-1], r.phi)
        assert swapped != r and counting.CliqueRecord(r.clique, r.chain, keys, r.phi) == r

    def test_a_seeded_explore_orders_no_child_keys(self, monkeypatch):
        calls = ordering_spy(monkeypatch)
        for g in (gen_subtree(60, 4, 2), gen_interval(40, 1)):
            counting.explore(g, 3)
        assert calls == []

    def test_a_model_holds_no_region(self):
        def live_regions():
            gc.collect()
            return sum(isinstance(o, subproblems.Region) for o in gc.get_objects())

        before = live_regions()
        model = counting.explore(gen_subtree(60, 4, 2))
        assert live_regions() == before
        assert sum(len(r.child_keys) for e in model.entries.values() for r in e.records) > 0

    def draws(self, g, model, seed=1, n=20):
        rng = random.Random(seed)
        return [sample_cpdag(g.as_partial_graph(), [model], rng) for _ in range(n)]

    def test_precount_orders_nothing_and_draws_order_what_they_read_once(self, monkeypatch):
        g = gen_subtree(60, 4, 2)
        calls = ordering_spy(monkeypatch)
        model = precount(g)
        assert calls == []
        read = []
        real = sampling.draw_clique

        def spy(model, key, rng):
            read.append(real(model, key, rng))
            return read[-1]

        monkeypatch.setattr(sampling, "draw_clique", spy)
        self.draws(g, model)
        records = [r for e in model.entries.values() for r in e.records]
        ordered = [r for r in records if r.child_keys and r.child_keys._keys is not None]
        # the records ordered are those the draws read, each ordered once
        assert {id(r) for r in ordered} == {id(r) for r in read if r.child_keys}
        assert sorted(calls) == sorted(r.clique for r in ordered)
        assert 0 < len(ordered) < sum(1 for r in records if r.child_keys)

    def test_a_lazy_model_draws_the_stream_of_an_ordered_one(self):
        for g in (gen_subtree(60, 4, 2), gen_interval(40, 1)):
            for seed in (None, 3):
                eager = precount(g, seed)
                for e in eager.entries.values():
                    for r in e.records:
                        tuple(r.child_keys)
                assert self.draws(g, precount(g, seed)) == self.draws(g, eager)

    def test_precount_of_a_large_sparse_graph_orders_nothing(self, monkeypatch):
        g = gen_peo(2000, 1, 1)
        calls = ordering_spy(monkeypatch)
        assert precount(g).total == count_cpdag(g.as_partial_graph())
        assert calls == []

    def test_threads_that_share_a_fresh_model_draw_their_own_streams(self):
        # the first draws order and list the records they read while other
        # threads read the same records, switching as often as the
        # interpreter lets them; each stream is the one drawn alone from a
        # model of its own, and each record listed holds its whole listing.
        # A race shows in some rounds only, so there are a few, each on a
        # fresh model
        g = gen_peo(100, 2, 1)
        alone = [self.draws(g, precount(g), seed, 3) for seed in range(8)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                model = precount(g)
                got: list = [None] * len(alone)
                start = threading.Barrier(len(alone), timeout=10)

                def draw(i):
                    start.wait()
                    got[i] = self.draws(g, model, i, 3)

                threads = [threading.Thread(target=draw, args=(i,)) for i in range(len(alone))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert got == alone
                listed = [r for e in model.entries.values() for r in e.records
                          if r.listing is not None]
                assert any(r.chain for r in listed)
                assert all(r.listing == sampling._listing(r) for r in listed)
        finally:
            sys.setswitchinterval(old)


def swept_during(monkeypatch, run):
    """What ``run()`` returns, and the adjacency rows and first block of
    every traversal it runs: an LBFS sweep's block is its vertex mask."""
    calls = []

    def spy(*args, **kwargs):
        calls.append((args[0], args[1][0]))
        return refine_traversal(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(chordal, "refine_traversal", spy)
        m.setattr(subproblems, "refine_traversal", spy)
        out = run()
    return out, calls


def test_an_unseeded_exploration_sweeps_each_subgraph_that_is_not_complete_once(monkeypatch):
    # each graph was built checked, so its root's cliques are kept from the
    # check
    for g in [gen_interval(40, 1), gen_subtree(60, 4, 2), *helpers.oracle_corpus()]:
        root = (1 << g.n) - 1
        assert "_cliques" in vars(g)
        model, calls = swept_during(monkeypatch, lambda: precount(g))
        swept = [block for _, block in calls]
        assert sorted(swept) == sorted(
            k for k, e in model.entries.items() if len(e.records) > 1 and k != root
        )

    # a CPDAG whose components are not complete, and a collider 1 -> 0 <- 41
    # onto a single vertex: the split sweeps each root, and the count sweeps
    # only the subgraphs below a root that are not complete
    parts = [gen_interval(40, 1), gen_subtree(60, 4, 2), helpers.three_clique_chain(),
             helpers.path_graph(5), helpers.complete_graph(3)]
    undirected: list[list[int]] = [[]]
    for c in parts:
        base = len(undirected)
        undirected += [[base + w for w in row] for row in c.adj]
    n = len(undirected)
    directed_out: list[list[int]] = [[] for _ in range(n)]
    directed_out[1] = directed_out[41] = [0]  # the lowest vertices of the first two parts
    pg = PartialGraph(n, undirected, directed_out)
    _, calls = swept_during(monkeypatch, lambda: count_cpdag(pg))
    # each component object sweeps each of its subgraphs at most once
    assert len({(id(adj), block) for adj, block in calls}) == len(calls)
    want = []
    for c in undirected_components(pg):
        root = (1 << c.n) - 1
        want.append((c.adj, root))
        want += [(c.adj, k) for k, e in precount(c).entries.items()
                 if len(e.records) > 1 and k != root]
    assert sorted(calls, key=repr) == sorted(want, key=repr)


def test_a_seeded_exploration_sweeps_each_subgraph_that_is_not_complete_once(monkeypatch):
    # each tree is built from a seeded sweep, and no other sweep runs: the
    # root's kept cliques go unread
    g = gen_subtree(60, 4, 2)
    model, calls = swept_during(monkeypatch, lambda: counting.explore(g, 3))
    swept = [block for _, block in calls]
    assert sorted(swept) == sorted(k for k, e in model.entries.items() if len(e.records) > 1)
    assert len(swept) == 8


def test_a_checked_graph_keeps_the_sweep_of_its_chordality_check(monkeypatch):
    # what it keeps of the sweep is its cliques, which build the root's tree
    g = gen_subtree(60, 4, 2)
    root = (1 << g.n) - 1
    for build in (lambda: Uccg(g.labels, g.adj), lambda: Uccg.from_edges(g.labels, g.edges())):
        h, calls = swept_during(monkeypatch, build)
        assert calls == [(h.adj, root)]
        assert h.adj_masks == g.adj_masks
        assert h._cliques == chordal._cliques_of_sweep(g, lbfs(g))
        model, calls = swept_during(monkeypatch, lambda: precount(h))
        assert len(calls) == 7  # the subgraphs below the root that are not complete
        assert root not in [block for _, block in calls]
        assert model.entries == precount(g).entries


def test_a_second_exploration_of_one_graph_sweeps_no_root(monkeypatch):
    # no subgraph's sweep is kept, so each that is not complete is swept
    # again; the root's tree is built from the kept cliques
    g = gen_subtree(60, 4, 2)
    first = precount(g)
    second, calls = swept_during(monkeypatch, lambda: precount(g))
    assert second.entries == first.entries
    assert sorted(block for _, block in calls) == sorted(
        k for k, e in first.entries.items() if len(e.records) > 1 and k != (1 << g.n) - 1
    )
    assert len(calls) == 7


def test_a_checked_graph_runs_its_whole_clique_pass_once(monkeypatch, capsys):
    passes = []
    real = chordal._cliques_of_sweep

    def spy(g, sweep):
        passes.append((g, len(sweep) == g.n))
        return real(g, sweep)

    # the graph's kept cliques are found through the name graphs binds
    monkeypatch.setattr(chordal, "_cliques_of_sweep", spy)
    monkeypatch.setattr(graphs, "_cliques_of_sweep", spy)

    def whole_passes() -> list:
        out = [h for h, whole in passes if whole]
        passes.clear()
        return out

    src = gen_subtree(60, 4, 2)
    whole_passes()
    g = Uccg(src.labels, src.adj)
    t = clique_tree(g)
    model = precount(g)
    assert [h is g for h in whole_passes()] == [True]
    assert len(t.cliques) > 1 and len(model.entries) > 1
    assert main(["gen", "--model", "subtree", "--n", "60", "--k", "4", "--seed", "2"]) == 0
    assert "cliques=" in capsys.readouterr().err
    assert len(whole_passes()) == 1

    # g's component, an edge, and a collider n + 2 -> n + 4 <- n + 3: the
    # split runs each component's pass once, and the count after it reads
    # the split pg keeps, so neither it nor its explorations run one
    n = g.n
    pg = PartialGraph(
        n + 5,
        [*g.adj, (n + 1,), (n,), (), (), ()],
        [()] * (n + 2) + [(n + 4,), (n + 4,), ()],
    )
    comps = undirected_components(pg)
    assert [h.labels for h in whole_passes()] == [c.labels for c in comps]
    assert len(comps) == 5
    assert count_cpdag(pg) == model.total * 2
    assert whole_passes() == []
    # an equal graph keeps a split of its own: its count runs one pass per
    # component
    fresh = PartialGraph(pg.n, pg.undirected, pg.directed_out)
    assert fresh == pg and count_cpdag(fresh) == model.total * 2
    assert [h.labels for h in whole_passes()] == [c.labels for c in comps]

    # an exploration keeps nothing on its root that grows with the
    # subgraphs it explores
    big = gen_peo(2000, 1, 1)
    kept = dict(vars(big))
    model = precount(big)
    assert len(model.entries) > 1000
    assert vars(big).keys() == kept.keys() == {"labels", "adj", "adj_masks", "_cliques"}
    assert all(vars(big)[k] is v for k, v in kept.items())
