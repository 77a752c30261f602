"""Brute-force oracles: orientation enumeration, root-picking, linear extensions.

Core claims:
    - enumeration yields exactly the acyclic, v-structure-free orientations
    - every enumerated orientation has exactly one source
    - root-picking agrees with enumeration
    - enumeration refuses more than 24 edges and root-picking more than 25
      vertices or more than ROOT_PICKING_SUBPROBLEMS memoized parts, with the
      messages the command line prints
    - linear extension enumeration supports the ordering-level properties:
      reverses are elimination orderings, some ordering starts with a maximal
      clique, and all orderings share a separator-or-clique prefix
"""

import itertools

import pytest

import helpers
from mectools import Dag, count_root_picking, enumerate_amos, oracle, v_structures
from mectools.chordal import clique_tree
from mectools.counting import factorial
from mectools.graphs import orient_by_ordering
from mectools.oracle import TooLargeError


def amos_by_definition(g):
    """Filter every permutation-induced orientation for morality."""
    pg = g.as_partial_graph()
    out = set()
    for perm in itertools.permutations(range(g.n)):
        dag = orient_by_ordering(pg, [g], [perm])
        if not v_structures(dag):
            out.add(dag.edge_set())
    return out


class TestEnumerateAmos:
    def test_path3(self):
        dags = enumerate_amos(helpers.path_graph(3))
        assert len(dags) == 3
        assert {d.edge_set() for d in dags} == {
            frozenset({(0, 1), (1, 2)}),
            frozenset({(1, 0), (1, 2)}),
            frozenset({(2, 1), (1, 0)}),
        }

    def test_k3(self):
        assert len(enumerate_amos(helpers.complete_graph(3))) == 6

    def test_diamond_contains_expected_orientation(self):
        dags = enumerate_amos(helpers.diamond_with_chord())
        target = frozenset({(1, 0), (1, 3), (2, 0), (2, 1), (2, 3)})
        assert target in {d.edge_set() for d in dags}

    def test_matches_permutation_definition(self):
        for g in helpers.random_chordal_corpus(25, 2, 7, seed=103):
            assert {d.edge_set() for d in enumerate_amos(g)} == amos_by_definition(g)

    def test_each_amo_has_one_source(self):
        for g in helpers.random_chordal_corpus(20, 2, 8, seed=107, max_edges=14):
            for dag in enumerate_amos(g):
                indeg = [0] * g.n
                for _, v in dag.edges():
                    indeg[v] += 1
                assert sum(1 for d in indeg if d == 0) == 1

    def test_results_deterministic_and_duplicate_free(self):
        g = helpers.three_clique_chain()
        a = enumerate_amos(g)
        b = enumerate_amos(g)
        assert [d.edge_set() for d in a] == [d.edge_set() for d in b]
        assert len({d.edge_set() for d in a}) == len(a)

    def test_size_guard(self):
        # the command line prints this message after "error: " and exits 3
        with pytest.raises(
            TooLargeError, match="^component with 28 edges exceeds the enumeration limit of 24$"
        ):
            enumerate_amos(helpers.complete_graph(8))


class TestCountRootPicking:
    def test_size_guard(self):
        assert count_root_picking(helpers.path_graph(25)) == 25
        # the command line prints this message after "error: " and exits 3
        with pytest.raises(
            TooLargeError, match="^component with 26 vertices exceeds the root-picking limit of 25$"
        ):
            count_root_picking(helpers.path_graph(26))

    def test_subproblem_bound(self, monkeypatch):
        # K_k has 2^k - 1 parts: at a bound of 16, K_4 counts and K_5 raises
        monkeypatch.setattr(oracle, "ROOT_PICKING_SUBPROBLEMS", 16)
        assert count_root_picking(helpers.complete_graph(4)) == 24
        error = "^component with 5 vertices needs more than 16 root-picking subproblems$"
        with pytest.raises(TooLargeError, match=error):
            count_root_picking(helpers.complete_graph(5))

    def test_complete_graphs(self):
        for n in range(1, 8):
            assert count_root_picking(helpers.complete_graph(n)) == factorial(n)

    def test_three_clique_chain(self):
        assert count_root_picking(helpers.three_clique_chain()) == 54

    def test_path3(self):
        assert count_root_picking(helpers.path_graph(3)) == 3

    def test_matches_enumeration(self):
        for g in helpers.random_chordal_corpus(25, 2, 8, seed=109, max_edges=14):
            assert count_root_picking(g) == len(enumerate_amos(g))

    def test_trees_count_n(self):
        import random

        rng = random.Random(11)
        for _ in range(5):
            n = rng.randint(2, 22)
            edges = [(rng.randrange(i), i) for i in range(1, n)]
            from mectools import Uccg

            assert count_root_picking(Uccg.from_edges(range(n), edges)) == n


class TestTopologicalOrderings:
    def test_diamond_orientation_has_two_orderings(self):
        g = helpers.diamond_with_chord()
        dag = Dag.from_edges(4, [(1, 0), (1, 3), (2, 0), (2, 1), (2, 3)])
        assert sorted(helpers.topological_orderings_of_amo(g, dag)) == [
            (2, 1, 0, 3),
            (2, 1, 3, 0),
        ]

    def test_fully_ordered_path(self):
        g = helpers.path_graph(4)
        dag = orient_by_ordering(g.as_partial_graph(), [g], [(0, 1, 2, 3)])
        assert helpers.topological_orderings_of_amo(g, dag) == [(0, 1, 2, 3)]

    def test_oriented_triangle_single_ordering(self):
        g = helpers.complete_graph(3)
        dag = orient_by_ordering(g.as_partial_graph(), [g], [(0, 1, 2)])
        assert helpers.topological_orderings_of_amo(g, dag) == [(0, 1, 2)]

    def test_mismatched_skeleton_rejected(self):
        with pytest.raises(ValueError):
            helpers.topological_orderings_of_amo(
                helpers.path_graph(3), Dag.from_edges(3, [(0, 1)])
            )

    def test_size_guard(self):
        g = helpers.path_graph(11)
        with pytest.raises(TooLargeError):
            helpers.topological_orderings_of_amo(
                g, orient_by_ordering(g.as_partial_graph(), [g], [tuple(range(11))])
            )


class TestOrderingProperties:
    def corpus(self):
        return helpers.random_chordal_corpus(15, 2, 7, seed=113, max_edges=13)

    def test_reverse_of_every_ordering_is_peo(self):
        for g in self.corpus():
            for dag in enumerate_amos(g):
                for tau in helpers.topological_orderings_of_amo(g, dag):
                    assert helpers.list_is_peo(g, tuple(reversed(tau)))

    def test_some_ordering_starts_with_a_maximal_clique(self):
        for g in self.corpus():
            cliques = helpers.brute_maximal_cliques(g)
            for dag in enumerate_amos(g):
                assert any(
                    frozenset(tau[: len(c)]) == c
                    for tau in helpers.topological_orderings_of_amo(g, dag)
                    for c in cliques
                )

    def test_clique_started_orderings_share_separator_or_clique_prefix(self):
        # Arbitrary orderings of one orientation need not share such a prefix
        # (e.g. a star center forced second shares only non-separator
        # prefixes); the orderings that begin with a maximal clique do.
        for g in self.corpus():
            t = clique_tree(g)
            cliques = set(map(frozenset, helpers.clique_tuples(t)))
            candidates = set(cliques)
            candidates.update(map(frozenset, helpers.minimal_separators(t)))
            for dag in enumerate_amos(g):
                started = [
                    tau
                    for tau in helpers.topological_orderings_of_amo(g, dag)
                    if any(frozenset(tau[: len(c)]) == c for c in cliques)
                ]
                assert started
                assert any(
                    all(frozenset(tau[: len(s)]) == s for tau in started)
                    for s in candidates
                )
