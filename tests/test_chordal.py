"""LBFS, elimination orderings, clique trees, and minimal separators.

Core claims:
    - a reversed LBFS order is a perfect elimination ordering on chordal input
    - the list-based elimination-ordering test matches the definition checked
      pairwise, and is_chordal matches it on chordal, non-chordal and
      disconnected graphs
    - clique trees satisfy the induced-subtree property, enumerate exactly the
      maximal cliques, and carry the minimal separators on their edges;
      clique_tree rejects non-chordal and disconnected graphs
    - the clique sweep's prefix search attaches each clique where the
      per-vertex rule of helpers.per_vertex_cliques_of_sweep does, and fails
      exactly on non-chordal graphs
    - clique_tree takes its one-clique path exactly on complete subgraphs,
      and then draws nothing from its rng
    - none of this depends on tie-breaking or root seeds
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from mectools import NotChordalError, Uccg, is_chordal
from mectools.chordal import _cliques_of_sweep, clique_tree, lbfs


def peo_by_definition(g: Uccg, rho) -> bool:
    pos = {v: i for i, v in enumerate(rho)}
    nbr = [set(a) for a in g.adj]
    for v in rho:
        later = [w for w in g.adj[v] if pos[w] > pos[v]]
        for a, b in itertools.combinations(later, 2):
            if b not in nbr[a]:
                return False
    return True


class TestIsPeo:
    def test_path_good_order(self):
        assert helpers.list_is_peo(helpers.path_graph(3), (0, 2, 1))

    def test_path_bad_order(self):
        # 0 and 2 come after 1 but are not adjacent
        assert not helpers.list_is_peo(helpers.path_graph(3), (1, 0, 2))

    def test_complete_graph_any_order(self):
        g = helpers.complete_graph(4)
        for rho in itertools.permutations(range(4)):
            assert helpers.list_is_peo(g, rho)

    def test_matches_definition_on_random_orders(self):
        rng = random.Random(2)
        for g in helpers.random_chordal_corpus(15, 2, 8, seed=31):
            for _ in range(10):
                rho = list(range(g.n))
                rng.shuffle(rho)
                assert helpers.list_is_peo(g, rho) == peo_by_definition(g, rho)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            helpers.list_is_peo(helpers.path_graph(3), (0, 1))


PROPERTY = settings(max_examples=400, deadline=None, derandomize=True, database=None)


@st.composite
def graphs_with_orders(draw):
    """A chordal graph, a cycle C4..C8, or a chordal graph with one edge
    removed, with a random order or a reversed randomized LBFS."""
    kind = draw(st.sampled_from(["chordal", "cycle", "edge removed"]))
    if kind == "cycle":
        n = draw(st.integers(4, 8))
        g = helpers.unchecked_uccg(n, helpers.cycle_edges(n))
    else:
        model = draw(st.sampled_from(["peo", "subtree", "thicken", "interval"]))
        n = draw(st.integers(1, 12))
        g = helpers._generate(model, n, draw(st.integers(2, 3)), draw(st.integers(0, 2**16)))
        if kind == "edge removed" and g.m:
            gone = draw(st.sampled_from(sorted(g.edges())))
            g = helpers.unchecked_uccg(g.n, [e for e in g.edges() if e != gone])
    if draw(st.booleans()):
        rho = draw(st.permutations(range(g.n)))
    else:
        rho = lbfs(g, rng=random.Random(draw(st.integers(0, 2**16))))[::-1]
    return g, rho


@PROPERTY
@given(graphs_with_orders())
def test_is_chordal_matches_the_list_oracle(case):
    g, rho = case
    assert helpers.list_is_peo(g, rho) == peo_by_definition(g, rho)
    chordal = helpers.list_is_peo(g, helpers.list_lbfs_order(g)[::-1])
    assert is_chordal(g) == chordal
    if not chordal:
        with pytest.raises(NotChordalError):
            clique_tree(g)


class TestLbfs:
    def test_complete_graph_reverse_is_peo(self):
        g = helpers.complete_graph(3)
        assert helpers.list_is_peo(g, lbfs(g)[::-1])

    def test_path_orders_enumerated(self):
        # brute force: the reverse-PEO orders of the path starting anywhere
        g = helpers.path_graph(3)
        good = {
            rho
            for rho in itertools.permutations(range(3))
            if peo_by_definition(g, tuple(reversed(rho)))
        }
        assert lbfs(g) in good
        for seed in range(10):
            assert lbfs(g, rng=random.Random(seed)) in good

    def test_path_started_at_middle(self):
        # randomized tie-breaks eventually start at the middle vertex; from
        # there only two visit orders exist and both reverse to elimination
        # orderings
        g = helpers.path_graph(3)
        middle_starts = {
            lbfs(g, rng=random.Random(s))
            for s in range(40)
            if lbfs(g, rng=random.Random(s))[0] == 1
        }
        assert middle_starts
        assert middle_starts <= {(1, 0, 2), (1, 2, 0)}
        for order in middle_starts:
            assert helpers.list_is_peo(g, tuple(reversed(order)))

    def test_four_cycle_reverse_fails_peo(self):
        g = helpers.unchecked_uccg(4, helpers.cycle_edges(4))
        assert not helpers.list_is_peo(g, lbfs(g)[::-1])

    def test_default_is_deterministic(self):
        g = helpers.random_chordal_corpus(1, 12, 16, seed=4)[0]
        assert lbfs(g) == lbfs(g)

    def test_reverse_peo_on_corpus(self):
        for g in helpers.random_chordal_corpus(40, 2, 20, seed=6):
            assert helpers.list_is_peo(g, lbfs(g)[::-1])
            assert helpers.list_is_peo(g, lbfs(g, rng=random.Random(g.n))[::-1])


class TestIsChordal:
    def test_four_cycle(self):
        g = helpers.unchecked_uccg(4, helpers.cycle_edges(4))
        assert not is_chordal(g)

    def test_larger_cycles(self):
        for n in (5, 6, 8):
            g = helpers.unchecked_uccg(n, helpers.cycle_edges(n))
            assert not is_chordal(g)

    def test_any_tree(self):
        rng = random.Random(8)
        for _ in range(10):
            n = rng.randint(2, 30)
            edges = [(rng.randrange(i), i) for i in range(1, n)]
            assert is_chordal(helpers.unchecked_uccg(n, edges))

    def test_seven_vertex_chain(self):
        assert is_chordal(helpers.clique_chain_7())

    def test_empty_graph(self):
        assert is_chordal(Uccg((), ()))

    def test_disconnected(self):
        # a 4-cycle beside an isolated vertex, visited before or after it
        assert not is_chordal(helpers.unchecked_uccg(5, helpers.cycle_edges(4)))
        shifted = [(u + 1, v + 1) for u, v in helpers.cycle_edges(4)]
        assert not is_chordal(helpers.unchecked_uccg(5, shifted))
        assert is_chordal(helpers.unchecked_uccg(5, [(0, 1), (1, 2), (3, 4)]))


class TestCliqueTree:
    def test_complete_graph_single_node(self):
        t = clique_tree(helpers.complete_graph(5))
        assert t.cliques == (0b11111,)
        assert t.parent == (0,)
        assert helpers.minimal_separators(t) == []

    def test_three_clique_chain(self):
        t = clique_tree(helpers.three_clique_chain())
        assert set(helpers.clique_tuples(t)) == {(0, 1, 2), (1, 2, 3, 4), (1, 2, 4, 5)}
        assert sorted(helpers.minimal_separators(t)) == [(1, 2), (1, 2, 4)]

    def test_path_cliques(self):
        t = clique_tree(helpers.path_graph(3))
        assert set(helpers.clique_tuples(t)) == {(0, 1), (1, 2)}
        assert helpers.minimal_separators(t) == [(1,)]

    def test_path4_separators(self):
        t = clique_tree(helpers.path_graph(4))
        assert sorted(helpers.minimal_separators(t)) == [(1,), (2,)]

    def test_default_root_contains_lowest_label(self):
        for g in helpers.random_chordal_corpus(10, 3, 12, seed=17):
            t = clique_tree(g)
            assert t.order[0] == 0
            assert t.cliques[0] & 1

    def test_induced_subtree_property(self):
        for g in helpers.random_chordal_corpus(25, 2, 14, seed=9):
            for rng in (None, random.Random(1), random.Random(2)):
                t = clique_tree(g, rng=rng)
                tree_nbrs = [set() for _ in t.cliques]
                for x, p in enumerate(t.parent):
                    if x != p:
                        tree_nbrs[x].add(p)
                        tree_nbrs[p].add(x)
                for v in range(g.n):
                    holding = [i for i, c in enumerate(t.cliques) if c >> v & 1]
                    # connectivity in the tree via BFS restricted to holding
                    hold = set(holding)
                    seen = {holding[0]}
                    stack = [holding[0]]
                    while stack:
                        x = stack.pop()
                        for y in tree_nbrs[x]:
                            if y in hold and y not in seen:
                                seen.add(y)
                                stack.append(y)
                    assert seen == hold

    def test_cliques_are_exactly_the_maximal_ones(self):
        for g in helpers.random_chordal_corpus(25, 2, 10, seed=13):
            t = clique_tree(g)
            found = set(map(frozenset, helpers.clique_tuples(t)))
            assert len(found) == len(t.cliques)
            assert found == helpers.brute_maximal_cliques(g)

    def test_clique_set_invariant_under_seeds(self):
        for g in helpers.random_chordal_corpus(10, 3, 14, seed=23):
            base = set(clique_tree(g).cliques)
            for seed in range(6):
                t = clique_tree(g, rng=random.Random(seed))
                assert set(t.cliques) == base

    def test_at_most_n_cliques(self):
        for g in helpers.random_chordal_corpus(15, 2, 16, seed=27):
            assert len(clique_tree(g).cliques) <= g.n

    def test_separator_count_and_cliqueness(self):
        for g in helpers.random_chordal_corpus(15, 2, 12, seed=29):
            t = clique_tree(g)
            seps = helpers.minimal_separators(t)
            assert len(seps) == len(t.cliques) - 1
            nbr = [set(a) for a in g.adj]
            for sep in seps:
                for a, b in itertools.combinations(sep, 2):
                    assert b in nbr[a]

    def test_separators_match_brute_force(self):
        for g in helpers.random_chordal_corpus(20, 2, 7, seed=37):
            t = clique_tree(g)
            found = set(map(frozenset, helpers.minimal_separators(t)))
            assert found == helpers.brute_minimal_separators(g)

    def test_singleton_graph(self):
        t = clique_tree(Uccg([5], [[]]))
        assert t.cliques == (1,)
        assert t.separators == (None,)

    def test_rejects_a_cycle(self):
        for n in (4, 5, 6):
            g = helpers.unchecked_uccg(n, helpers.cycle_edges(n))
            for rng in (None, random.Random(n)):
                with pytest.raises(NotChordalError) as info:
                    clique_tree(g, rng=rng)
                assert info.value.labels == g.labels

    def test_rejects_a_disconnected_graph(self):
        g = helpers.unchecked_uccg(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="not connected"):
            clique_tree(g)


def sweep_agrees(g: Uccg, sweep) -> tuple[list[int], list[int]] | None:
    found = _cliques_of_sweep(g, sweep)
    assert found == helpers.per_vertex_cliques_of_sweep(g, sweep)
    return found


class TestCliquesOfSweep:
    def test_corpus_sweeps(self):
        for g in helpers.random_chordal_corpus(40, 2, 30, seed=41):
            for rng in (None, random.Random(g.n), random.Random(g.m)):
                found = sweep_agrees(g, lbfs(g, rng))
                assert found is not None and -1 not in found[1]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(helpers.chordal_graphs(), st.integers(0, 2**16))
    def test_generated_chordal_graphs(self, g, seed):
        for rng in (None, random.Random(seed)):
            assert sweep_agrees(g, lbfs(g, rng)) is not None

    def test_each_further_component_attaches_to_minus_one(self):
        parts = helpers.random_chordal_corpus(12, 1, 8, seed=43)
        rng = random.Random(43)
        for i in range(0, len(parts), 3):
            group = parts[i : i + 3]
            n = sum(p.n for p in group)
            ids = list(range(n))
            rng.shuffle(ids)  # the components interleave in vertex order
            edges, base = [], 0
            for p in group:
                edges += [(ids[base + u], ids[base + v]) for u, v in p.edges()]
                base += p.n
            g = helpers.unchecked_uccg(n, edges)
            for sweep_rng in (None, random.Random(i)):
                _, attach = sweep_agrees(g, lbfs(g, sweep_rng))
                assert attach.count(-1) == len(group) - 1

    def test_none_exactly_on_cycles_with_and_without_a_chord(self):
        for n in range(4, 9):
            for chord in [None, *((0, j) for j in range(2, n - 1))]:
                edges = helpers.cycle_edges(n) + ([chord] if chord else [])
                g = helpers.unchecked_uccg(n, edges)
                chordal = helpers.list_is_peo(g, helpers.list_lbfs_order(g)[::-1])
                assert chordal == (n == 4 and chord is not None)
                for rng in (None, random.Random(n)):
                    assert (sweep_agrees(g, lbfs(g, rng)) is not None) == chordal


class TestCompleteness:
    def test_one_clique_tree_exactly_on_complete_subgraphs(self):
        graphs = [
            helpers.three_clique_chain(),
            helpers.clique_chain_7(),
            helpers.diamond_with_chord(),
            helpers.complete_graph(6),
            *helpers.random_chordal_corpus(6, 3, 7, seed=47),
        ]
        for g in graphs:
            for sub in range(1, 1 << g.n):
                verts = [v for v in range(g.n) if sub >> v & 1]
                complete = all(b in g.adj[a] for a, b in itertools.combinations(verts, 2))
                rng = random.Random(sub)
                state = rng.getstate()
                try:
                    t = clique_tree(g, rng, sub)
                except ValueError:  # a disconnected subgraph
                    assert not complete
                    continue
                assert (t.cliques == (sub,)) == complete
                assert (rng.getstate() == state) == complete

    def test_complete_graph_minus_one_edge(self):
        # the missing edge at the lowest vertex, which the test reads first,
        # and at the highest, which it reads last
        for k in range(3, 7):
            full = (1 << k) - 1
            for gone in {(0, 1), (0, k - 1), (1, k - 1), (k - 2, k - 1)}:
                g = helpers.unchecked_uccg(
                    k, [e for e in itertools.combinations(range(k), 2) if e != gone]
                )
                t = clique_tree(g)
                assert sorted(t.cliques) == sorted(full ^ 1 << v for v in gone)
