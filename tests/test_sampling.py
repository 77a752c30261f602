"""Uniform orientation sampling.

Core claims:
    - precount records clique weights summing to the orientation count
    - draw_clique realizes exact weight/total probabilities
    - draw_perm is uniform over the admissible permutations
    - a record's first draw lists its clique once and keeps the listing,
      which later draws read; no undrawn record is listed, a drawn record
      equals a fresh one, and a model whose records were all drawn draws
      the streams of a fresh model
    - sample_amo yields valid orientations (skeleton preserved, acyclic by an
      independent Kahn check, no v-structures) with exactly uniform
      probabilities, verified symbolically on small graphs and statistically
      on the 54-orientation graph, from a precount model and from a bare
      explore model alike
    - every CPDAG draw passes the independent Kahn check
    - identical seeds reproduce identical sample sequences
    - a CPDAG draw built as one DAG equals the per-component assembly, draw
      for draw, with the same seed, with and without ``_components``
    - without ``_components``, models that are not exactly the CPDAG's
      undirected components, in order, are rejected
    - with ``_components``, a split that misses vertices is rejected
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import helpers
from mectools import (
    NotCpdagError,
    PartialGraph,
    count_root_picking,
    enumerate_amos,
    gen_interval,
    gen_peo,
    gen_subtree,
    precount,
    sample_cpdag,
    sampling,
    undirected_components,
    v_structures,
)
from mectools._partition import mask_bits
from mectools.counting import CliqueRecord, _chain_weights, explore
from mectools.sampling import ModelMismatchError, _draw_order, draw_clique, draw_perm, sample_amo
from mectools.subproblems import Components


def models_of(pg: PartialGraph) -> list:
    """One sampler model per undirected component, in split order."""
    return [precount(c) for c in undirected_components(pg)]


def assert_acyclic(n: int, edge_sets) -> None:
    """Every edge set, on vertices ``range(n)``, passes the Kahn oracle."""
    for edges in edge_sets:
        assert helpers.kahn_acyclic(n, edges)


# frozen 0.999 chi-square quantiles (53 and 35 degrees of freedom)
CHI2_999_53 = 90.5734
CHI2_999_35 = 66.6188


class TestPrecount:
    def test_three_clique_chain_weights(self):
        g = helpers.three_clique_chain()
        model = precount(g)
        entry = model.entries[helpers.key_of(model, g.labels)]
        assert sorted(helpers.record_weights(entry)) == [16, 18, 20]
        assert model.total == 54

    def test_complete_graph_single_record(self):
        g = helpers.complete_graph(5)
        model = precount(g)
        entry = model.entries[helpers.key_of(model, g.labels)]
        (record,) = entry.records
        assert helpers.record_weights(entry) == [120]
        assert record.child_keys == ()

    def test_path3_weights(self):
        g = helpers.path_graph(3)
        model = precount(g)
        entry = model.entries[helpers.key_of(model, g.labels)]
        assert sorted(helpers.record_weights(entry)) == [1, 2]
        assert model.total == 3

    def test_total_equals_count_on_corpus(self):
        for g in helpers.random_chordal_corpus(25, 2, 12, seed=127):
            assert precount(g).total == count_root_picking(g)


class TestDrawClique:
    def test_single_record_always_chosen(self):
        g = helpers.complete_graph(4)
        model = precount(g)
        key = helpers.key_of(model, g.labels)
        rng = random.Random(0)
        for _ in range(20):
            assert draw_clique(model, key, rng).clique == 0b1111

    def test_frequencies_match_weights(self):
        g = helpers.three_clique_chain()
        model = precount(g)
        key = helpers.key_of(model, g.labels)
        rng = random.Random(99)
        draws = 54000
        counts = Counter(draw_clique(model, key, rng).clique for _ in range(draws))
        entry = model.entries[key]
        for record, weight in zip(entry.records, helpers.record_weights(entry)):
            p = weight / model.total
            sigma = (p * (1 - p) / draws) ** 0.5
            assert abs(counts[record.clique] / draws - p) < 5 * sigma

    def test_missing_key(self):
        model = precount(helpers.path_graph(3))
        with pytest.raises(KeyError):
            draw_clique(model, (41, 42), random.Random(0))


class TestDrawPerm:
    def test_two_vertex_forced(self):
        rng = random.Random(1)
        record = helpers.perm_record(0b11, (0b01,))
        for _ in range(10):
            assert draw_perm(record, rng) == (1, 0)

    def test_unconstrained_uniform(self):
        rng = random.Random(2)
        draws = 6000
        record = helpers.perm_record(0b1110, ())
        counts = Counter(draw_perm(record, rng) for _ in range(draws))
        assert set(counts) == set(itertools.permutations((1, 2, 3)))
        for perm in counts:
            assert abs(counts[perm] / draws - 1 / 6) < 0.05

    def test_worked_chain_uniform_over_16(self):
        admissible = {
            perm
            for perm in itertools.permutations((2, 3, 4, 5))
            if set(perm[:2]) != {2, 3} and set(perm[:3]) != {2, 3, 5}
        }
        assert len(admissible) == 16
        assert (3, 5, 4, 2) in admissible
        rng = random.Random(3)
        draws = 16000
        m = helpers.vertex_mask
        record = helpers.perm_record(m((2, 3, 4, 5)), (m((2, 3)), m((2, 3, 5))))
        counts = Counter(draw_perm(record, rng) for _ in range(draws))
        assert set(counts) == admissible
        p = 1 / 16
        sigma = (p * (1 - p) / draws) ** 0.5
        for perm in admissible:
            assert abs(counts[perm] / draws - p) < 5 * sigma

    def test_never_emits_forbidden_prefix(self):
        rng = random.Random(4)
        record = helpers.perm_record(0b1111, (0b0011, 0b0111))
        for _ in range(500):
            perm = draw_perm(record, rng)
            assert set(perm[:2]) != {0, 1}
            assert set(perm[:3]) != {0, 1, 2}

    def test_invalid_chain(self):
        # draw_perm trusts its chain; the check every explored chain passes
        # (see test_trusted_inputs) rejects this one
        with pytest.raises(helpers.ChainNotNestedError):
            helpers.validate_chain(frozenset((0, 1, 2, 3)), [(0, 1), (2, 3)])


def listed_spy(monkeypatch) -> tuple[list[int], list]:
    """The masks ``sampling`` lists from now on, and the records
    ``draw_clique`` returns."""
    listed: list[int] = []
    read: list = []
    list_mask, draw = sampling.mask_bits, sampling.draw_clique

    def spy_list(x):
        listed.append(x)
        return list_mask(x)

    def spy_draw(model, key, rng):
        read.append(draw(model, key, rng))
        return read[-1]

    monkeypatch.setattr(sampling, "mask_bits", spy_list)
    monkeypatch.setattr(sampling, "draw_clique", spy_draw)
    return listed, read


def assert_listings_of(model, drawn) -> None:
    """The records of ``drawn`` hold their clique's vertices in increasing
    order and, when chained, the runs of their classes and the chain's
    closed-form weights; no other record of the model holds a listing."""
    drawn_ids = {id(r) for r in drawn}
    for r in (r for e in model.entries.values() for r in e.records):
        if id(r) not in drawn_ids:
            assert r.listing is None
        elif not r.chain:
            assert r.listing == tuple(mask_bits(r.clique))
        else:
            vertices, classes, counts, weights = r.listing
            assert vertices == tuple(mask_bits(r.clique))
            assert weights == _chain_weights(len(vertices), [x.bit_count() for x in r.chain])
            ell = len(r.chain)
            want = [next((i for i, x in enumerate(r.chain) if x >> v & 1), ell) for v in vertices]
            assert [c for c, n in zip(classes, counts) for _ in range(n)] == want
            assert all(n > 0 for n in counts)
            assert all(a != b for a, b in zip(classes, classes[1:]))


class TestKeptListing:
    GRAPHS = (gen_subtree(60, 4, 2), gen_interval(40, 1), helpers.three_clique_chain())

    def draws(self, g, model, seed=1, n=20):
        rng = random.Random(seed)
        return [sample_amo(g, model, rng) for _ in range(n)]

    def test_each_drawn_record_is_listed_once_and_no_other(self, monkeypatch):
        listed, read = listed_spy(monkeypatch)
        for g in self.GRAPHS:
            model = precount(g)
            listed.clear()
            read.clear()
            self.draws(g, model)
            drawn = list({id(r): r for r in read}.values())
            assert 0 < len(drawn) and sorted(listed) == sorted(r.clique for r in drawn)
            assert_listings_of(model, drawn)

    def test_a_drawn_record_equals_a_fresh_one(self):
        g = gen_interval(40, 1)
        model = precount(g)
        self.draws(g, model)
        drawn = [r for e in model.entries.values() for r in e.records if r.listing is not None]
        assert any(r.chain for r in drawn) and any(not r.chain for r in drawn)
        for r in drawn:
            assert r == CliqueRecord(r.clique, r.chain, tuple(r.child_keys), r.phi)
            assert repr(r) == repr(CliqueRecord(r.clique, r.chain, r.child_keys, r.phi))

    def test_a_model_whose_records_were_all_drawn_draws_the_stream_of_a_fresh_one(self):
        for g in self.GRAPHS:
            for seed in (None, 3):
                drawn = precount(g, seed)
                rng = random.Random(0)
                for e in drawn.entries.values():
                    for r in e.records:
                        draw_perm(r, rng)
                assert self.draws(g, drawn) == self.draws(g, precount(g, seed))

    def test_draws_of_a_large_sparse_graph_list_only_what_they_read(self, monkeypatch):
        g = gen_peo(2000, 1, 1)
        model = precount(g)
        listed, read = listed_spy(monkeypatch)
        rng = random.Random(5)
        for _ in range(200):
            _draw_order(model, rng)
        drawn = list({id(r): r for r in read}.values())
        assert len(listed) == len(drawn)
        assert_listings_of(model, drawn)


class TestSampleAmo:
    def test_two_vertex_coin_flip(self):
        g = helpers.path_graph(2)
        model = precount(g)
        rng = random.Random(5)
        counts = Counter(sample_amo(g, model, rng).edge_set() for _ in range(4000))
        assert_acyclic(g.n, counts)
        assert set(counts) == {frozenset({(0, 1)}), frozenset({(1, 0)})}
        assert abs(counts[frozenset({(0, 1)})] / 4000 - 0.5) < 0.05

    def test_path3_three_orientations(self):
        g = helpers.path_graph(3)
        model = precount(g)
        rng = random.Random(6)
        counts = Counter(sample_amo(g, model, rng).edge_set() for _ in range(9000))
        assert_acyclic(g.n, counts)
        assert len(counts) == 3
        for c in counts.values():
            assert abs(c / 9000 - 1 / 3) < 0.03

    def test_samples_are_valid_orientations(self):
        rng = random.Random(7)
        for g in helpers.random_chordal_corpus(15, 2, 12, seed=131):
            model = precount(g)
            for _ in range(20):
                dag = sample_amo(g, model, rng)
                assert helpers.kahn_acyclic(g.n, dag.edges())
                assert dag.skeleton() == frozenset(g.edges())
                assert v_structures(dag) == set()

    def test_statistical_uniformity_54(self):
        g = helpers.three_clique_chain()
        expected = {d.edge_set() for d in enumerate_amos(g)}
        assert len(expected) == 54
        model = precount(g)
        rng = random.Random(20210)
        draws = 54000
        counts = Counter(sample_amo(g, model, rng).edge_set() for _ in range(draws))
        assert_acyclic(g.n, counts)
        assert set(counts) == expected
        mean = draws / 54
        chi2 = sum((c - mean) ** 2 / mean for c in counts.values())
        assert chi2 < CHI2_999_53

    def test_exact_uniformity_symbolic(self):
        for g in helpers.random_chordal_corpus(10, 2, 6, seed=137):
            model = precount(g)
            dist = helpers.exact_sampler_distribution(g, model)
            total = precount(g).total
            assert len(dist) == total
            assert all(p == Fraction(1, total) for p in dist.values())
            assert dist.keys() == {d.edge_set() for d in enumerate_amos(g)}

    def test_exact_distribution_of_a_bare_explore_model(self):
        # explore leaves each record's child keys as a Components, which the
        # oracle reads as a tuple; its distribution is precount's
        graphs = [helpers.three_clique_chain(), helpers.path_graph(5)]
        graphs += helpers.random_chordal_corpus(4, 3, 6, seed=139)
        unordered = 0
        for g in graphs:
            model = explore(g)
            records = [r for e in model.entries.values() for r in e.records]
            unordered += sum(isinstance(r.child_keys, Components) for r in records)
            dist = helpers.exact_sampler_distribution(g, model)
            assert dist == helpers.exact_sampler_distribution(g, precount(g))
        assert unordered

    def test_deterministic_under_seed(self):
        g = helpers.three_clique_chain()
        model = precount(g)
        runs = []
        for _ in range(2):
            rng = random.Random(424242)
            runs.append([sample_amo(g, model, rng) for _ in range(50)])
        assert runs[0] == runs[1]

    def test_model_mismatch(self):
        model = precount(helpers.path_graph(3))
        with pytest.raises(ModelMismatchError):
            sample_amo(helpers.complete_graph(3), model, random.Random(0))


class TestSampleCpdag:
    def test_fully_directed_is_returned_as_is(self):
        pg = PartialGraph.from_edges(3, [], [(0, 1), (2, 1)])
        models = models_of(pg)
        dag = sample_cpdag(pg, models, random.Random(0))
        assert helpers.kahn_acyclic(pg.n, dag.edges())
        assert dag.edge_set() == {(0, 1), (2, 1)}

    def test_directed_edges_kept_undirected_oriented(self):
        # the collider 0 -> 1 <- 4 beside the undirected edge 2 - 3
        pg = PartialGraph.from_edges(5, [(2, 3)], [(0, 1), (4, 1)])
        models = models_of(pg)
        rng = random.Random(8)
        seen = Counter()
        for _ in range(2000):
            dag = sample_cpdag(pg, models, rng)
            assert {(0, 1), (4, 1)} <= dag.edge_set()
            seen[dag.edge_set()] += 1
        assert_acyclic(pg.n, seen)
        assert len(seen) == 2
        for c in seen.values():
            assert abs(c / 2000 - 0.5) < 0.06
        # the lone arrow 0 -> 1 is in no CPDAG
        lone = PartialGraph.from_edges(4, [(2, 3)], [(0, 1)])
        with pytest.raises(NotCpdagError, match="not strongly protected"):
            sample_cpdag(lone, models_of(lone), rng)

    def test_two_triangles_36_equally_likely(self):
        pg = PartialGraph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        models = models_of(pg)
        rng = random.Random(9)
        draws = 36000
        counts = Counter(sample_cpdag(pg, models, rng).edge_set() for _ in range(draws))
        assert_acyclic(pg.n, counts)
        assert len(counts) == 36
        mean = draws / 36
        chi2 = sum((c - mean) ** 2 / mean for c in counts.values())
        assert chi2 < CHI2_999_35

    def test_v_structures_preserved(self):
        # 0 -> 2 <- 1 collider plus a free undirected leg 3 - 4
        pg = PartialGraph.from_edges(5, [(3, 4)], [(0, 2), (1, 2)])
        comps = undirected_components(pg)
        models = [precount(c) for c in comps]
        rng = random.Random(10)
        adjacency = [set(a) | set(b) for a, b in zip(pg.undirected, pg.directed_out)]
        for u in range(pg.n):
            for v in adjacency[u].copy():
                adjacency[v].add(u)
        for _ in range(50):
            dag = sample_cpdag(pg, models, rng, _components=comps)
            assert helpers.kahn_acyclic(pg.n, dag.edges())
            assert v_structures(dag, adjacency) == {(0, 2, 1)}

    def test_model_component_mismatch(self):
        pg = PartialGraph.from_edges(3, [(0, 1), (1, 2)])
        other = PartialGraph.from_edges(3, [(0, 1)])
        with pytest.raises(ModelMismatchError):
            sample_cpdag(pg, models_of(other), random.Random(0))

    def test_components_that_miss_vertices_are_rejected(self):
        # a trusted split is checked against its models only; the ordering
        # it yields then misses vertices, which orient_by_ordering rejects
        pg = PartialGraph.from_edges(5, [(0, 1), (3, 4)], [(1, 2), (3, 2)])
        comps = undirected_components(pg)
        models = [precount(c) for c in comps]
        with pytest.raises(ValueError, match="permutation"):
            sample_cpdag(pg, models[:-1], random.Random(0), _components=comps[:-1])
        # without the arrow 3 -> 2, 1 -> 2 is not strongly protected, which
        # is checked before the split
        lone = PartialGraph.from_edges(5, [(0, 1), (3, 4)], [(1, 2)])
        with pytest.raises(NotCpdagError):
            sample_cpdag(lone, models[:-1], random.Random(0), _components=comps[:-1])


def test_one_dag_draw_equals_the_per_component_assembly():
    for seed in range(4):
        pg = helpers.many_component_cpdag(seed)
        comps = undirected_components(pg)
        assert sum(c.n == 1 for c in comps) > 6
        models = [precount(c) for c in comps]
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(25):
            got = sample_cpdag(pg, models, fast, _components=comps)
            assert got == helpers.sample_cpdag_by_components(pg, models, comps, slow)
            assert helpers.kahn_acyclic(pg.n, got.edges())
            assert sample_cpdag(pg, models, fast) == helpers.sample_cpdag_by_components(
                pg, models, comps, slow
            )
        assert fast.random() == slow.random()


def test_default_path_rejects_models_of_other_components():
    # components {0, 1, 2}, {3, 4} and the singleton {5}, the collider 2 -> 5 <- 3
    pg = PartialGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)], [(2, 5), (3, 5)])
    path = PartialGraph.from_edges(6, [(0, 1), (1, 2), (3, 4)], [(2, 5), (3, 5)])
    models = models_of(pg)
    many = helpers.many_component_cpdag(5)
    cases = {
        "reordered": models[::-1],
        "neighbours swapped": [models[1], models[0], models[2]],
        "missing singleton": models[:2],
        "one model too many": models + models[2:],
        "same labels, other edges": models_of(path),
        "other graph": models_of(many),
    }
    for wrong in cases.values():
        with pytest.raises(ModelMismatchError):
            sample_cpdag(pg, wrong, random.Random(0))
    for other in (path, many):
        with pytest.raises(ModelMismatchError):
            sample_cpdag(other, models, random.Random(0))
    with pytest.raises(ModelMismatchError):
        sample_cpdag(many, models_of(helpers.many_component_cpdag(6)), random.Random(0))
    # the lone arrow 2 -> 5 makes the graph no CPDAG, whatever the models
    lone = PartialGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)], [(2, 5)])
    for wrong in [models, *cases.values()]:
        with pytest.raises(NotCpdagError):
            sample_cpdag(lone, wrong, random.Random(0))
