"""Components left undirected after fixing a clique prefix.

Core claims:
    - the clique-set and clique-permutation variants agree for every clique
      and every permutation
    - the output matches the definition computed by unioning enumerated
      orientations (small graphs)
    - outputs are disjoint connected chordal graphs covering V minus the
      clique
"""

import itertools
import random

import pytest

import helpers
from mectools import is_chordal
from mectools._partition import refine_traversal
from mectools.subproblems import _emit_components, components_after_clique


def as_label_sets(comps):
    return {c.labels for c in comps}


def mask_label_sets(g, masks):
    return {helpers.labels_of(g, h) for h in masks}


class TestComponentsAfterClique:
    def test_seven_vertex_chain_big_clique(self):
        g = helpers.clique_chain_7()
        comps = components_after_clique(g, 0b1111)
        assert mask_label_sets(g, comps) == {(4, 5), (6,)}

    def test_three_clique_chain_first_clique(self):
        g = helpers.three_clique_chain()
        comps = components_after_clique(g, 0b111)
        assert mask_label_sets(g, comps) == {(3, 4, 5)}
        (path,) = comps
        sub = helpers.induced_subgraph(g, helpers.labels_of(g, path))
        assert sorted(sub.edges()) == [(0, 1), (1, 2)]

    def test_complete_graph_whole_clique(self):
        g = helpers.complete_graph(5)
        assert components_after_clique(g, 0b11111) == []

    def test_not_a_clique(self):
        # the step trusts its clique; the check every library-built clique
        # passes (see test_trusted_inputs) rejects this one
        with pytest.raises(helpers.NotCliqueError):
            helpers.check_clique(helpers.path_graph(3), [0, 2])

    def test_matches_union_of_orientations(self):
        for g in helpers.random_chordal_corpus(30, 2, 8, seed=41, max_edges=14):
            for clique in helpers.brute_maximal_cliques(g):
                got = mask_label_sets(g, components_after_clique(g, helpers.vertex_mask(clique)))
                assert got == helpers.union_components_oracle(g, sorted(clique))

    def test_outputs_partition_rest_and_are_chordal(self):
        for g in helpers.random_chordal_corpus(25, 2, 12, seed=43):
            for clique in helpers.brute_maximal_cliques(g):
                comps = [
                    helpers.induced_subgraph(g, helpers.labels_of(g, h))
                    for h in components_after_clique(g, helpers.vertex_mask(clique))
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
                base = mask_label_sets(g, components_after_clique(g, helpers.vertex_mask(clique)))
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
                base = mask_label_sets(g, components_after_clique(g, helpers.vertex_mask(clique)))
                for perm in itertools.permutations(sorted(clique)):
                    assert (
                        as_label_sets(helpers.components_after_permutation(g, perm)) == base
                    )

    def test_not_a_clique(self):
        with pytest.raises(helpers.NotCliqueError):
            helpers.components_after_permutation(helpers.path_graph(4), (0, 3))
