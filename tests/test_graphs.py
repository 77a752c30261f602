"""Graph types, parsing, serialization, decomposition, and orientation.

Core claims:
    - parse/serialize round-trips every graph
    - malformed input is rejected with a line-numbered error
    - the undirected components partition the undirected subgraph and are
      validated chordal
    - a Uccg is rejected unless its labels increase and its rows form one
      connected chordal graph; a non-chordal one names its own labels
    - induced subgraphs keep global labels
    - orienting by one ordering per undirected component keeps the directed
      edges, points every undirected edge forward, and yields an acyclic DAG
      with the input's skeleton; an ordering that is not a permutation of
      its component, or orderings that do not cover the graph, are rejected
    - a component's rows are cached on it by its first orientation: the
      bytes of its local neighbours, read by translate, up to 256 vertices,
      an itemgetter per row past that; both orient as the reference does
    - a PartialGraph's rows are strictly increasing, it is a chain graph
      exactly when no partially directed cycle runs through it, it is
      flag-free exactly when no induced a -> b - c occurs in it, and it
      passes is_cpdag with chordal components exactly when it is the CPDAG
      of a Markov equivalence class
    - on a chain graph the DAG built without the acyclicity check is one the
      public check accepts; on any other graph an orientation with a cycle
      is rejected
    - a Dag is rejected exactly when it has a directed cycle, and it writes
      the text a PartialGraph with the same arrows writes
"""

import functools
import itertools
import random
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from mectools import (
    Dag,
    NotChordalError,
    ParseError,
    PartialGraph,
    Uccg,
    parse_graph,
    undirected_components,
    v_structures,
)
from mectools.graphs import orient_by_ordering

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
UNSORTED = "neighbor lists must be sorted and duplicate-free"


@st.composite
def chordal_edges(draw, size):
    """Edges of a connected chordal graph on ``range(size)``: each vertex
    joins an earlier vertex ``j`` and some of ``j``'s own earlier
    neighbours, which form a clique with ``j``."""
    earlier: list[tuple[int, ...]] = [()]
    edges = []
    for i in range(1, size):
        j = draw(st.integers(0, i - 1))
        keep = draw(st.lists(st.booleans(), min_size=len(earlier[j]), max_size=len(earlier[j])))
        nbrs = (j,) + tuple(w for w, k in zip(earlier[j], keep) if k)
        earlier.append(nbrs)
        edges += [(w, i) for w in nbrs]
    return edges


@st.composite
def chain_graphs(draw):
    """A chain graph: chordal components on shuffled vertex ids, ranked at
    random, with directed edges only from a lower to a higher rank."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    n = sum(sizes)
    ids = draw(st.permutations(range(n)))
    rank = draw(st.permutations(range(len(sizes))))
    rank_of = [0] * n
    undirected = []
    base = 0
    for part, size in enumerate(sizes):
        local = ids[base : base + size]
        undirected += [(local[a], local[b]) for a, b in draw(chordal_edges(size))]
        for v in local:
            rank_of[v] = rank[part]
        base += size
    across = [(u, v) for u, v in itertools.combinations(range(n), 2) if rank_of[u] != rank_of[v]]
    keep = draw(st.lists(st.booleans(), min_size=len(across), max_size=len(across)))
    directed = [
        (u, v) if rank_of[u] < rank_of[v] else (v, u) for (u, v), k in zip(across, keep) if k
    ]
    return PartialGraph.from_edges(n, undirected, directed)


@st.composite
def changed_chain_graphs(draw):
    """A chain graph with one vertex pair changed, which may close a
    partially directed cycle: an undirected edge made directed, a directed
    edge reversed, or a directed edge added between non-adjacent vertices."""
    g = draw(chain_graphs())
    if g.n < 2:
        return g
    u, v = draw(st.permutations(range(g.n)))[:2]
    undirected = set(helpers.undirected_pairs(g)) - {(u, v), (v, u)}
    directed = set(g.directed_edges()) - {(u, v), (v, u)}
    return PartialGraph.from_edges(g.n, undirected, directed | {(u, v)})


@st.composite
def mixed_graphs(draw):
    """Any partial graph on up to seven vertices."""
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(n), 2))
    kinds = draw(st.lists(st.sampled_from(".udr"), min_size=len(pairs), max_size=len(pairs)))
    return graph_of_kinds(n, pairs, kinds)


def graph_of_kinds(n, pairs, kinds):
    """The partial graph whose pair ``(u, v)`` carries no edge (``.``), an
    undirected one (``u``), ``u -> v`` (``d``) or ``v -> u`` (``r``)."""
    return PartialGraph.from_edges(
        n,
        [p for p, k in zip(pairs, kinds) if k == "u"],
        [(u, v) if k == "d" else (v, u) for (u, v), k in zip(pairs, kinds) if k in "dr"],
    )


@st.composite
def digraphs(draw):
    """Any directed graph on up to seven vertices, 2-cycles included, as its
    vertex count and sorted head rows."""
    n = draw(st.integers(0, 7))
    arcs = [(u, v) for u, v in itertools.permutations(range(n), 2) if draw(st.booleans())]
    return n, tuple(tuple(v for u, v in arcs if u == w) for w in range(n))


FIVE = list(itertools.combinations(range(5), 2))


@functools.lru_cache(maxsize=None)
def cpdags_on(n, skeleton):
    return helpers.cpdags_on_skeleton(n, skeleton)


@st.composite
def five_vertex_graphs(draw):
    """A partial graph on five vertices: any one, or the CPDAG of a class on
    a drawn skeleton, with at most one vertex pair changed (a near miss)."""
    kinds = draw(st.lists(st.sampled_from(".udr"), min_size=len(FIVE), max_size=len(FIVE)))
    if draw(st.booleans()):
        return graph_of_kinds(5, FIVE, kinds)
    skeleton = tuple(p for p, k in zip(FIVE, kinds) if k != ".")
    g = draw(st.sampled_from(sorted(cpdags_on(5, skeleton), key=PartialGraph.serialize)))
    if draw(st.booleans()):
        u, v = draw(st.sampled_from(FIVE))
        undirected = set(helpers.undirected_pairs(g)) - {(u, v)}
        directed = set(g.directed_edges()) - {(u, v), (v, u)}
        kind = draw(st.sampled_from(".udr"))
        undirected |= {(u, v)} if kind == "u" else set()
        directed |= {(u, v)} if kind == "d" else {(v, u)} if kind == "r" else set()
        g = PartialGraph.from_edges(5, undirected, directed)
    return g


def skeleton_of(g):
    """The adjacent pairs ``(u, v)``, ``u < v``, of ``g`` in sorted order."""
    directed = ((min(e), max(e)) for e in g.directed_edges())
    return tuple(sorted({*helpers.undirected_pairs(g), *directed}))


def accepted_as_cpdag(g):
    """What the command line counts: is_cpdag and chordal components."""
    try:
        undirected_components(g)
    except NotChordalError:
        return False
    return g.is_cpdag


@st.composite
def with_ordering(draw, graphs):
    g = draw(graphs)
    return g, draw(st.permutations(range(g.n)))


class TestParse:
    def test_undirected_path(self):
        g = parse_graph("3 2 0\n1 2\n2 3\n")
        assert g.n == 3
        assert g.undirected == ((1,), (0, 2), (1,))
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
            # one line per edge, each kind in sorted order
            lines = [f"{n} {len(undirected)} {len(directed)}"]
            lines += [f"{u + 1} {v + 1}" for u, v in sorted(undirected) + sorted(directed)]
            assert g.serialize() == "\n".join(lines) + "\n"

    def test_empty_graph(self):
        g = PartialGraph.from_edges(0)
        assert g.serialize() == "0 0 0\n"
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

    @pytest.mark.parametrize(
        "build, args, message",
        [
            (PartialGraph, (3, ((2, 1), (0,), (0,)), ((), (), ())), UNSORTED),
            (PartialGraph, (3, ((1, 1), (0,), ()), ((), (2,), ())), UNSORTED),
            (PartialGraph, (3, ((), (), ()), ((2, 1), (), ())), UNSORTED),
            (PartialGraph, (3, ((), (), ()), ((1, 1), (), ())), UNSORTED),
            # an edge list is checked before its endpoints index a row
            (PartialGraph.from_edges, (2, [(0, 5)]), "vertex out of range"),
            (PartialGraph.from_edges, (2, [], [(-1, 0)]), "vertex out of range"),
        ],
        ids=[
            "undirected-unsorted",
            "undirected-duplicate",
            "directed-unsorted",
            "directed-duplicate",
            "from-edges-undirected-range",
            "from-edges-directed-range",
        ],
    )
    def test_rejects_unsorted_or_duplicate_row(self, build, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(*args)


class TestIsChainGraph:
    def test_every_mixed_graph_up_to_four_vertices(self):
        for n in range(5):
            pairs = list(itertools.combinations(range(n), 2))
            for kinds in itertools.product(".udr", repeat=len(pairs)):
                g = graph_of_kinds(n, pairs, kinds)
                assert g.is_chain_graph is not helpers.has_partially_directed_cycle(g), kinds

    @PROPERTY
    @given(st.one_of(mixed_graphs(), chain_graphs(), changed_chain_graphs()))
    def test_matches_brute_force(self, g):
        assert g.is_chain_graph is not helpers.has_partially_directed_cycle(g)

    def test_directed_edge_inside_a_component(self):
        # 0 - 1 - 2 with 0 -> 2: the path back closes a cycle
        assert not PartialGraph.from_edges(3, [(0, 1), (1, 2)], [(0, 2)]).is_chain_graph

    def test_cycle_through_components(self):
        # 0 -> 1 - 2 -> 3 - 4 -> 0 runs through three components
        g = PartialGraph.from_edges(5, [(1, 2), (3, 4)], [(0, 1), (2, 3), (4, 0)])
        assert not g.is_chain_graph
        assert PartialGraph.from_edges(5, [(1, 2), (3, 4)], [(0, 1), (2, 3)]).is_chain_graph


class TestIsFlagFree:
    def test_every_mixed_graph_up_to_four_vertices(self):
        for n in range(5):
            pairs = list(itertools.combinations(range(n), 2))
            for kinds in itertools.product(".udr", repeat=len(pairs)):
                g = graph_of_kinds(n, pairs, kinds)
                assert g.is_flag_free is not helpers.has_flag(g), kinds

    @PROPERTY
    @given(mixed_graphs())
    def test_matches_brute_force(self, g):
        assert g.is_flag_free is not helpers.has_flag(g)

    def test_arrow_into_a_line(self):
        # 0 -> 1 - 2 with 0 and 2 nonadjacent; any edge between 0 and 2 ends it
        assert not PartialGraph.from_edges(3, [(1, 2)], [(0, 1)]).is_flag_free
        assert PartialGraph.from_edges(3, [(1, 2)], [(0, 1), (0, 2)]).is_flag_free
        assert PartialGraph.from_edges(3, [(1, 2)], [(0, 1), (2, 0)]).is_flag_free
        assert PartialGraph.from_edges(3, [(1, 2), (0, 2)], [(0, 1)]).is_flag_free

    def test_library_built_cpdags_are_flag_free(self):
        for seed in range(8):
            g = helpers.many_component_cpdag(seed)
            assert g.is_chain_graph and g.is_flag_free and not helpers.has_flag(g)


class TestIsCpdag:
    def test_every_mixed_graph_up_to_four_vertices(self):
        for n in range(5):
            pairs = list(itertools.combinations(range(n), 2))
            for kinds in itertools.product(".udr", repeat=len(pairs)):
                g = graph_of_kinds(n, pairs, kinds)
                assert accepted_as_cpdag(g) is (g in cpdags_on(n, skeleton_of(g))), kinds

    @PROPERTY
    @given(five_vertex_graphs())
    def test_matches_brute_force_on_five_vertices(self, g):
        assert accepted_as_cpdag(g) is (g in cpdags_on(5, skeleton_of(g)))

    @pytest.mark.parametrize(
        "n, undirected, directed",
        [
            (4, [], [(2, 0), (3, 0), (0, 1)]),  # 2 -> 0 -> 1
            (3, [], [(0, 1), (2, 1)]),  # 0 -> 1 <- 2
            (4, [], [(0, 2), (3, 2), (2, 1), (0, 1)]),  # 0 -> 2 -> 1
            (4, [(0, 2), (0, 3)], [(2, 1), (3, 1), (0, 1)]),  # 0 - 2 -> 1, 0 - 3 -> 1
        ],
        ids=["parent-of-tail", "collider", "path-of-two", "two-lines"],
    )
    def test_each_configuration_protects_an_arrow(self, n, undirected, directed):
        g = PartialGraph.from_edges(n, undirected, directed)
        assert g.is_cpdag and g in cpdags_on(n, skeleton_of(g))

    @pytest.mark.parametrize(
        "n, undirected, directed",
        [
            (2, [], [(0, 1)]),
            (3, [], [(0, 1), (1, 2)]),  # a chain, no collider
            (3, [], [(2, 0), (0, 1), (2, 1)]),  # a transitive triangle
            (4, [(0, 2), (0, 3), (2, 3)], [(2, 1), (3, 1), (0, 1)]),  # 2 and 3 adjacent
        ],
        ids=["one-arrow", "chain", "triangle", "two-adjacent-lines"],
    )
    def test_arrow_not_strongly_protected(self, n, undirected, directed):
        g = PartialGraph.from_edges(n, undirected, directed)
        assert g.is_chain_graph and g.is_flag_free and not g.is_cpdag

    def test_library_built_cpdags_pass(self):
        for seed in range(8):
            assert helpers.many_component_cpdag(seed).is_cpdag


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
        "build, args",
        [
            (Uccg, ([0, 1, 2], [[1], [0, 2]])),  # wrong adjacency length
            (Uccg, ([0, 1, 2], [[1], [0, 3], [1]])),  # out-of-range entry
            (Uccg, ([0, 1, 2], [[0, 1], [0, 2], [1]])),  # self-loop
            (Uccg, ([0, 1, 2], [[1, 2], [0, 2], [1]])),  # asymmetric row
            (Uccg, ([0, 1, 2], [[2, 1], [0], [0]])),  # unsorted row
            (Uccg, ([0, 1, 2], [[1, 1], [0, 2], [1]])),  # duplicate entry
            (Uccg.from_edges, ((0, 1), [(0, 5)])),  # out-of-range edge endpoint
        ],
        ids=["length", "range", "self-loop", "asymmetric", "unsorted", "duplicate", "from-edges-range"],
    )
    def test_malformed_adjacency_rejected(self, build, args):
        with pytest.raises(ValueError):
            build(*args)

    def test_non_chordal_error_carries_labels(self):
        with pytest.raises(NotChordalError) as info:
            Uccg.from_edges((10, 11, 12, 13), helpers.cycle_edges(4))
        assert info.value.labels == (10, 11, 12, 13)
        # chordality is checked before connectivity, over the whole graph
        with pytest.raises(NotChordalError) as info:
            Uccg.from_edges((10, 11, 12, 13, 14, 15), helpers.cycle_edges(4) + [(4, 5)])
        assert info.value.labels == (10, 11, 12, 13, 14, 15)

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
        dag = helpers.orient_globally(g, (1, 0, 2))
        assert dag.edge_set() == {(1, 0), (1, 2)}

    def test_triangle_linear(self):
        g = helpers.complete_graph(3).as_partial_graph()
        dag = helpers.orient_globally(g, (0, 1, 2))
        assert dag.edge_set() == {(0, 1), (0, 2), (1, 2)}

    def test_seven_vertex_clique_first_ordering(self):
        # fixing the big clique as 3,2,1,0 forces everything else outward
        g = helpers.clique_chain_7().as_partial_graph()
        dag = helpers.orient_globally(g, (3, 2, 1, 0, 4, 5, 6))
        assert dag.edge_set() == {
            (3, 0), (3, 1), (3, 2), (3, 4), (3, 5),
            (2, 0), (2, 1), (2, 4), (2, 5),
            (1, 0), (4, 5), (4, 6), (5, 6),
        }
        assert v_structures(dag) == set()

    def test_directed_edges_are_kept(self):
        # directed edges stay even where the orderings put the head first: a
        # draw orders each component on its own, ignoring them
        g = PartialGraph.from_edges(5, [(2, 3), (3, 4)], [(0, 2), (1, 2), (2, 4)])
        dag = helpers.orient_globally(g, (3, 4, 2, 1, 0))
        assert dag.edge_set() == {(0, 2), (1, 2), (2, 4), (3, 2), (3, 4)}
        # a tail's undirected heads merge with its directed ones, sorted
        g = PartialGraph.from_edges(4, [(1, 0), (1, 3)], [(1, 2)])
        assert helpers.orient_globally(g, (1, 0, 2, 3)).out_edges[1] == (0, 2, 3)

    def test_directed_cycle_is_rejected(self):
        g = PartialGraph.from_edges(3, [], [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError, match="cycle"):
            helpers.orient_globally(g, (0, 1, 2))

    def test_not_a_permutation(self):
        g = helpers.path_graph(3).as_partial_graph()
        comps = undirected_components(g)  # one component, local ids = global
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
        for name, order in cases.items():
            try:
                orient_by_ordering(g, comps, [order])
                accepted.append(name)
            except ValueError as exc:
                assert "permutation" in str(exc), name
        assert accepted == []

    def test_orderings_must_cover_the_graph(self):
        g = PartialGraph.from_edges(4, [(0, 1), (2, 3)])
        comps = undirected_components(g)
        assert orient_by_ordering(g, comps, [[1, 0], [0, 1]]).edge_set() == {(1, 0), (2, 3)}
        # too few, one ordering short, each twice, and the first component
        # twice in place of the second, which adds up to four vertices but
        # would orient 0 - 1 both ways
        for cs, orders in [
            (comps[:1], [[0, 1]]),
            (comps, [[0, 1]]),
            (comps * 2, [[0, 1]] * 4),
            (comps[:1] * 2, [[0, 1], [1, 0]]),
        ]:
            with pytest.raises(ValueError, match="permutation"):
                orient_by_ordering(g, cs, orders)

    def test_rows_of_every_length_with_directed_heads(self):
        # undirected rows of length 0 (vertices 0, 7), 1 (1, 2, 6) and 3 or
        # 2 (3, 4, 5); 0, 1, 2 and 4 have directed heads as well
        g = PartialGraph.from_edges(
            8,
            [(1, 2), (3, 4), (3, 5), (4, 5), (5, 6)],
            [(0, 2), (0, 5), (1, 6), (2, 7), (4, 7)],
        )
        assert g.is_chain_graph
        comps = undirected_components(g)
        assert not any("_orient_rows" in vars(c) for c in comps)
        rng = random.Random(5)
        taus = [tuple(range(8)), tuple(range(7, -1, -1))]
        taus += [tuple(rng.sample(range(8), 8)) for _ in range(30)]
        orient_by_ordering(g, comps, helpers.split_ordering(g, taus[0])[1])
        rows = [vars(c)["_orient_rows"] for c in comps]  # built by the first call
        for tau in taus:
            dag = orient_by_ordering(g, comps, helpers.split_ordering(g, tau)[1])
            # and reused by every later one
            assert all(c._orient_rows is r for c, r in zip(comps, rows))
            assert dag.edge_set() == helpers.orientation_edges(g, tau)
            assert Dag(dag.n, dag.out_edges) == dag
        # no component has more than 256 vertices, so a row of two or more
        # is kept as the bytes of its local neighbours
        for comp, cached in zip(comps, rows):
            assert [r is None for r in cached] == [len(row) < 2 for row in comp.adj]
            assert all(
                type(r) is bytes and r == bytes(row)
                for r, row in zip(cached, comp.adj) if r is not None
            )

    @pytest.mark.parametrize("k", [256, 257, 300])
    def test_components_on_both_sides_of_256(self, k):
        # a k-vertex component: a strip of triangles, then a path to a leaf,
        # so rows of length 1, 2 and more; a 20-vertex one like it, two
        # isolated vertices (rows of length 0), and arrows from the small
        # component and the isolated vertices into the large one
        def strip(size):
            return [(i, i + 1) for i in range(size - 1)] + [(i, i + 2) for i in range(0, size // 2, 2)]

        n = k + 22
        ids = random.Random(k).sample(range(n), n)  # interleave the labels
        big, small, lone = ids[:k], ids[k:k + 20], ids[k + 20:]
        undirected = [(big[a], big[b]) for a, b in strip(k)]
        undirected += [(small[a], small[b]) for a, b in strip(20)]
        directed = [(small[i], big[j]) for i, j in [(0, 0), (0, 5), (3, k - 1), (19, k // 2)]]
        directed += [(lone[0], big[1]), (lone[0], small[2]), (lone[1], big[3])]
        g = PartialGraph.from_edges(n, undirected, directed)
        assert g.is_chain_graph
        comps = undirected_components(g)
        assert sorted(c.n for c in comps) == [1, 1, 20, k]
        rng = random.Random(k + 1)
        for _ in range(5):
            tau = rng.sample(range(n), n)
            _, orders = helpers.split_ordering(g, tau)
            dag = orient_by_ordering(g, comps, orders)
            assert dag.edge_set() == helpers.orientation_edges(g, tau)
            assert Dag(dag.n, dag.out_edges) == dag
            for comp, order in zip(comps, orders):
                want = helpers.uccg_orient_by_ordering(comp, order)
                assert {(comp.labels[u], comp.labels[v]) for u, v in want.edges()} == {
                    (u, v) for u, v in dag.edges() if u in comp.labels and v in comp.labels
                }
        for comp in comps:
            cached = comp._orient_rows
            assert [r is None for r in cached] == [len(row) < 2 for row in comp.adj]
            kinds = {type(r) for r in cached if r is not None}
            assert kinds <= ({itemgetter} if comp.n > 256 else {bytes})
        (large,) = [c for c in comps if c.n == k]
        assert {len(row) for row in large.adj} >= {1, 2, 3}
        assert {type(r) for r in large._orient_rows} == {type(None), itemgetter if k > 256 else bytes}

    def test_skeleton_and_acyclicity_random(self):
        rng = random.Random(3)
        for g in helpers.random_chordal_corpus(20, 2, 9, seed=21):
            tau = list(range(g.n))
            rng.shuffle(tau)
            dag = orient_by_ordering(g.as_partial_graph(), [g], [tau])
            assert dag == helpers.uccg_orient_by_ordering(g, tau)
            assert helpers.kahn_acyclic(dag.n, dag.edges())
            assert dag.skeleton() == frozenset(g.edges())


class TestTrustedOrientation:
    @PROPERTY
    @given(with_ordering(chain_graphs()))
    def test_chain_graph_draws_pass_the_public_check(self, case):
        g, tau = case
        assert g.is_chain_graph
        dag = helpers.orient_globally(g, tau)
        assert dag.edge_set() == helpers.orientation_edges(g, tau)
        assert helpers.kahn_acyclic(dag.n, dag.edges())
        assert Dag(dag.n, dag.out_edges) == dag

    @PROPERTY
    @given(with_ordering(changed_chain_graphs()))
    def test_cycle_is_rejected_exactly_when_there_is_one(self, case):
        g, tau = case
        edges = helpers.orientation_edges(g, tau)
        if helpers.kahn_acyclic(g.n, edges):
            dag = helpers.orient_globally(g, tau)
            assert dag.edge_set() == edges
            assert Dag(dag.n, dag.out_edges) == dag
        else:
            assert not g.is_chain_graph
            with pytest.raises(ValueError, match="cycle"):
                helpers.orient_globally(g, tau)


class TestDag:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            Dag.from_edges(3, [(0, 1), (1, 2), (2, 0)])

    @pytest.mark.parametrize("edge", [(5, 0), (-1, 0)], ids=["past-n", "negative"])
    def test_from_edges_rejects_an_endpoint_out_of_range(self, edge):
        with pytest.raises(ValueError, match="^vertex out of range$"):
            Dag.from_edges(2, [edge])

    @PROPERTY
    @given(digraphs())
    def test_rejects_exactly_the_cyclic_digraphs(self, case):
        n, rows = case
        edges = [(u, v) for u, row in enumerate(rows) for v in row]
        if helpers.kahn_acyclic(n, edges):
            dag = Dag(n, rows)
            assert dag.serialize() == PartialGraph(n, ((),) * n, rows).serialize()
        else:
            with pytest.raises(ValueError, match="cycle"):
                Dag(n, rows)

    def test_serialize_fully_directed(self):
        dag = Dag.from_edges(3, [(1, 0), (1, 2)])
        text = dag.serialize()
        assert text == "3 0 2\n2 1\n2 3\n"
        assert parse_graph(text).num_directed == 2
