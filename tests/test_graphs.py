"""Graph types, parsing, serialization, decomposition, and orientation.

Core claims:
    - parse/serialize round-trips every graph
    - malformed input is rejected with a line-numbered error
    - the undirected components partition the undirected subgraph and are
      validated chordal
    - a Uccg is rejected unless its labels increase and its rows form one
      connected chordal graph; a non-chordal one names its own labels
    - induced subgraphs keep global labels
    - orienting by an ordering keeps the directed edges, points every
      undirected edge forward, and yields an acyclic DAG with the input's
      skeleton; an ordering that is not a permutation is rejected
"""

import random

import pytest

import helpers
from mectools import (
    Dag,
    NotChordalError,
    ParseError,
    PartialGraph,
    Uccg,
    orient_by_ordering,
    parse_graph,
    undirected_components,
    v_structures,
)


class TestParse:
    def test_undirected_path(self):
        g = parse_graph("3 2 0\n1 2\n2 3\n")
        assert g.n == 3
        assert list(g.undirected_edges()) == [(0, 1), (1, 2)]
        assert list(g.directed_edges()) == []

    def test_single_directed_edge(self):
        g = parse_graph("2 0 1\n1 2\n")
        assert list(g.directed_edges()) == [(0, 1)]
        assert g.num_undirected == 0

    def test_edge_in_both_sections_rejected(self):
        with pytest.raises(ParseError, match="both directed and undirected"):
            parse_graph("2 1 1\n1 2\n1 2\n")

    def test_comments_and_blank_lines(self):
        g = parse_graph("# a path\n\n3 2 0\n1 2\n# middle\n2 3\n")
        assert g.num_undirected == 2

    def test_bytes_accepted(self):
        assert parse_graph(b"2 1 0\n1 2\n").num_undirected == 1

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_graph("3 2\n1 2\n2 3\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError, match="out of range") as err:
            parse_graph("3 2 0\n1 2\n2 4\n")
        assert err.value.line == 3

    def test_self_loop(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_graph("3 1 0\n2 2\n")

    def test_duplicate_edge(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_graph("3 2 0\n1 2\n2 1\n")

    def test_duplicate_directed_edge_reversed(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_graph("3 0 2\n1 2\n2 1\n")

    def test_missing_edges(self):
        with pytest.raises(ParseError):
            parse_graph("3 2 0\n1 2\n")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="extra"):
            parse_graph("2 1 0\n1 2\n1 2\n")


class TestRoundTrip:
    def test_mixed_graph(self):
        g = PartialGraph.from_edges(5, [(0, 1), (1, 2)], [(3, 4), (2, 3)])
        assert parse_graph(g.serialize()) == g

    def test_random_graphs(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 12)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            cut = rng.randint(0, len(pairs))
            undirected = pairs[: cut // 2]
            directed = [
                (v, u) if rng.random() < 0.5 else (u, v)
                for u, v in pairs[cut // 2 : cut]
            ]
            g = PartialGraph.from_edges(n, undirected, directed)
            assert parse_graph(g.serialize()) == g

    def test_empty_graph(self):
        g = PartialGraph.from_edges(0)
        assert parse_graph(g.serialize()) == g


class TestPartialGraphInvariants:
    def test_rejects_pair_in_both(self):
        with pytest.raises(ValueError):
            PartialGraph(2, ((1,), (0,)), ((1,), ()))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            PartialGraph(1, ((0,),), ((),))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            PartialGraph(2, ((1,), ()), ((), ()))


class TestUndirectedComponents:
    def test_directed_edge_ignored(self):
        g = PartialGraph.from_edges(4, [(2, 3)], [(0, 1)])
        comps = undirected_components(g)
        assert [c.labels for c in comps] == [(0,), (1,), (2, 3)]

    def test_fully_directed_gives_singletons(self):
        g = PartialGraph.from_edges(4, [], [(0, 1), (1, 2), (2, 3)])
        comps = undirected_components(g)
        assert len(comps) == 4
        assert all(c.n == 1 for c in comps)

    def test_four_cycle_not_chordal(self):
        g = PartialGraph.from_edges(4, helpers.cycle_edges(4))
        with pytest.raises(NotChordalError):
            undirected_components(g)

    def test_partition_of_undirected_subgraph(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 10)
            tree = [(rng.randrange(i), i) for i in range(1, n)]
            keep = [e for e in tree if rng.random() < 0.6]
            g = PartialGraph.from_edges(n, keep)
            comps = undirected_components(g)
            seen = sorted(lab for c in comps for lab in c.labels)
            assert seen == list(range(n))


class TestUccg:
    def test_labels_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            Uccg([2, 1], [[1], [0]])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            Uccg.from_edges([0, 1, 2, 3], [(0, 1), (2, 3)])

    def test_non_chordal_rejected(self):
        with pytest.raises(NotChordalError):
            Uccg.from_edges(range(4), helpers.cycle_edges(4))

    @pytest.mark.parametrize(
        "adj",
        [
            [[1], [0, 2]],  # wrong adjacency length
            [[1], [0, 3], [1]],  # out-of-range entry
            [[0, 1], [0, 2], [1]],  # self-loop
            [[1, 2], [0, 2], [1]],  # asymmetric row
            [[2, 1], [0], [0]],  # unsorted row
            [[1, 1], [0, 2], [1]],  # duplicate entry
        ],
        ids=["length", "range", "self-loop", "asymmetric", "unsorted", "duplicate"],
    )
    def test_malformed_adjacency_rejected(self, adj):
        with pytest.raises(ValueError):
            Uccg([0, 1, 2], adj)

    def test_non_chordal_error_carries_labels(self):
        with pytest.raises(NotChordalError) as info:
            Uccg.from_edges((10, 11, 12, 13), helpers.cycle_edges(4))
        assert info.value.labels == (10, 11, 12, 13)

    def test_immutable(self):
        g = helpers.path_graph(3)
        with pytest.raises(AttributeError):
            g.labels = (9, 9, 9)


class TestInducedSubgraph:
    def test_triangle_to_edge(self):
        g = helpers.complete_graph(3)
        sub = helpers.induced_subgraph(g, [0, 1])
        assert sub.labels == (0, 1)
        assert list(sub.edges()) == [(0, 1)]

    def test_tail_of_three_clique_chain(self):
        # the vertices outside the first clique induce a path
        sub = helpers.induced_subgraph(helpers.three_clique_chain(), [3, 4, 5])
        assert sub.labels == (3, 4, 5)
        assert sorted(sub.edges()) == [(0, 1), (1, 2)]

    def test_identity(self):
        g = helpers.three_clique_chain()
        assert helpers.induced_subgraph(g, g.labels) == g

    def test_labels_follow_through_nesting(self):
        g = helpers.clique_chain_7()
        sub = helpers.induced_subgraph(g, [2, 3, 4, 5, 6])
        subsub = helpers.induced_subgraph(sub, [4, 5, 6])
        assert subsub.labels == (4, 5, 6)


class TestOrientByOrdering:
    def test_path_oriented_outward(self):
        g = helpers.path_graph(3).as_partial_graph()
        dag = orient_by_ordering(g, (1, 0, 2))
        assert dag.edge_set() == {(1, 0), (1, 2)}

    def test_triangle_linear(self):
        g = helpers.complete_graph(3).as_partial_graph()
        dag = orient_by_ordering(g, (0, 1, 2))
        assert dag.edge_set() == {(0, 1), (0, 2), (1, 2)}

    def test_seven_vertex_clique_first_ordering(self):
        # fixing the big clique as 3,2,1,0 forces everything else outward
        g = helpers.clique_chain_7().as_partial_graph()
        dag = orient_by_ordering(g, (3, 2, 1, 0, 4, 5, 6))
        assert dag.edge_set() == {
            (3, 0), (3, 1), (3, 2), (3, 4), (3, 5),
            (2, 0), (2, 1), (2, 4), (2, 5),
            (1, 0), (4, 5), (4, 6), (5, 6),
        }
        assert v_structures(dag) == set()

    def test_directed_edges_are_kept(self):
        # directed edges stay even where tau puts the head first: a draw
        # concatenates per-component orderings, which ignore them
        g = PartialGraph.from_edges(5, [(2, 3), (3, 4)], [(0, 2), (1, 2), (2, 4)])
        dag = orient_by_ordering(g, (3, 4, 2, 1, 0))
        assert dag.edge_set() == {(0, 2), (1, 2), (2, 4), (3, 2), (3, 4)}
        # a tail's undirected heads merge with its directed ones, sorted
        g = PartialGraph.from_edges(4, [(1, 0), (1, 3)], [(1, 2)])
        assert orient_by_ordering(g, (1, 0, 2, 3)).out_edges[1] == (0, 2, 3)

    def test_directed_cycle_is_rejected(self):
        g = PartialGraph.from_edges(3, [], [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError, match="cycle"):
            orient_by_ordering(g, (0, 1, 2))

    def test_not_a_permutation(self):
        g = helpers.path_graph(3).as_partial_graph()
        cases = {
            "duplicate": (0, 0, 2),
            "out of range": (0, 1, 3),
            "negative": (0, -1, 2),
            "negative alias of a missing vertex": (-3, 1, 2),
            "too short": (0, 1),
            "too long": (0, 1, 2, 0),
            "too long, in range": (0, 1, 2, 3),
        }
        accepted = []
        for name, tau in cases.items():
            try:
                orient_by_ordering(g, tau)
                accepted.append(name)
            except ValueError as exc:
                assert "permutation" in str(exc), name
        assert accepted == []

    def test_skeleton_and_acyclicity_random(self):
        rng = random.Random(3)
        for g in helpers.random_chordal_corpus(20, 2, 9, seed=21):
            tau = list(range(g.n))
            rng.shuffle(tau)
            dag = orient_by_ordering(g.as_partial_graph(), tau)
            assert dag == helpers.uccg_orient_by_ordering(g, tau)
            assert helpers.kahn_acyclic(dag.n, dag.edges())
            assert dag.skeleton() == frozenset(g.edges())


class TestDag:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            Dag.from_edges(3, [(0, 1), (1, 2), (2, 0)])

    def test_serialize_fully_directed(self):
        dag = Dag.from_edges(3, [(1, 0), (1, 2)])
        text = dag.serialize()
        assert text == "3 0 2\n2 1\n2 3\n"
        assert parse_graph(text).num_directed == 2
