"""Exact orientation counting.

Core claims:
    - phi_chain evaluates the nested-prefix permutation count and agrees with
      naive enumeration everywhere
    - the closed form a draw reads its chained weights from gives the
      peel-off recurrence's count for every suffix at every step, 0 where a
      suffix's first set is already placed
    - a record's phi is that closed form too: it equals the recurrence and
      the enumeration, and explore reads the chain weights once per record
      with a chain
    - threads that extend the factorial table at once leave it exact
    - forbidden-prefix chains read off a clique tree are strictly nested
    - the precounted total equals exhaustive enumeration and root-picking on
      small graphs, the separator-sum formula cross-checks it, and the result
      is clique-tree invariant
    - the number of explored subgraphs stays within twice the clique count
    - two cliques sharing a separator have He, Jia & Yu's closed-form count,
      at sizes out of the oracles' reach
    - explore reads the clock once before each clique record when given a
      deadline, and never without one; a far deadline changes no record
    - explore, for the count and the sampler alike, gives a complete
      subgraph its total k! and no record or entry, and builds one record
      for every node of every other subgraph
    - a count takes one region product per directed tree edge and orders no
      child keys, so its work grows with the tree while the keys grow as n^2;
      a 5,000-vertex path is counted and drawn without deep recursion
"""

import itertools
import math
import random
import re
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import ChainElementNotProperSubsetError, ChainNotNestedError, phi_chain
from mectools import (
    NotChordalError,
    NotCpdagError,
    PartialGraph,
    Uccg,
    count_cpdag,
    count_root_picking,
    enumerate_amos,
    precount,
    undirected_components,
)
from mectools import counting, sample_cpdag, subproblems
from mectools._partition import mask_bits
from mectools.chordal import clique_tree
from mectools.counting import count_with_stats, explore, factorial, fp_chains
from mectools.generators import gen_interval, gen_peo


class TestPhiChain:
    def test_empty_chain_is_factorial(self):
        assert phi_chain({1, 2, 3}, []) == 6
        assert phi_chain(range(8), ()) == factorial(8)

    def test_single_element_chain(self):
        assert phi_chain({2, 3, 4, 5}, [{2, 3}]) == 20

    def test_two_element_chain(self):
        assert phi_chain({2, 3, 4, 5}, [{2, 3}, {2, 3, 5}]) == 16

    def test_not_nested_rejected(self):
        with pytest.raises(ChainNotNestedError):
            phi_chain({1, 2, 3, 4}, [{1, 2}, {3, 4}])

    def test_not_proper_subset_rejected(self):
        with pytest.raises(ChainElementNotProperSubsetError):
            phi_chain({1, 2}, [{1, 2}])

    def test_agrees_with_naive_on_random_chains(self):
        rng = random.Random(61)
        for _ in range(300):
            n = rng.randint(1, 8)
            ground = list(range(n))
            rng.shuffle(ground)
            chain = []
            cut = 0
            while cut < n - 1 and rng.random() < 0.6:
                cut = rng.randint(cut + 1, n - 1)
                chain.append(set(ground[:cut]))
            ground_set = set(ground)
            assert phi_chain(ground_set, chain) == helpers.phi_naive(ground_set, chain)

    def test_singleton_forbidden(self):
        # forbidding one element as the first position
        for n in range(2, 7):
            s = set(range(n))
            assert phi_chain(s, [{0}]) == factorial(n) - factorial(n - 1)


class TestPhiNaive:
    def test_worked_example(self):
        s = {2, 3, 4, 5}
        r = [{2, 3}, {2, 3, 5}]
        assert helpers.phi_naive(s, r) == 16
        # spot-check the definition on specific permutations
        def forbidden(perm):
            return any(set(perm[: len(x)]) == x for x in r)
        assert forbidden((3, 2, 4, 5))
        assert forbidden((2, 5, 3, 4))
        assert not forbidden((3, 5, 4, 2))

    def test_empty_collection(self):
        assert helpers.phi_naive({1, 2, 3, 4}, []) == 24

    def test_non_nested_collection(self):
        s = set(range(4))
        r = [{0, 1}, {2, 3}]
        count = sum(
            1
            for perm in itertools.permutations(sorted(s))
            if not any(set(perm[: len(x)]) == x for x in r)
        )
        assert helpers.phi_naive(s, r) == count

    def test_full_set_forbidden_gives_zero(self):
        assert helpers.phi_naive({1, 2}, [{1, 2}]) == 0

    def test_size_guard(self):
        with pytest.raises(helpers.SetTooLargeError):
            helpers.phi_naive(range(11), [])


class TestChainClosedForm:
    """The weights a draw reads at each chained position, from the closed
    form against the peel-off recurrence."""

    def test_every_suffix_and_step_matches_phi_sizes(self):
        rng = random.Random(11)
        for _ in range(400):
            k = rng.randrange(2, 40)
            sizes = sorted(rng.sample(range(1, k), rng.randint(1, min(5, k - 1))))
            weights = counting._chain_weights(k, sizes)
            for placed in range(k):
                left = [s - placed - 1 for s in sizes]
                for start in range(len(sizes) + 1):
                    got = counting._phi_suffixes(k - placed - 1, left, weights, start)
                    want = [helpers.phi_sizes(k - placed - 1, left[b:])
                            for b in range(start, len(sizes) + 1)]
                    assert got == want, (k, sizes, placed, start)

    def test_a_suffix_whose_first_set_is_placed_has_none(self):
        # a 6-clique with chain sizes 3 and 5, shrunk by 3 and by 4: the set
        # of 3 is left with 0 and with -1, so a suffix from it counts 0, as
        # helpers.phi_sizes has it, and the later suffixes count as it does
        weights = counting._chain_weights(6, [3, 5])
        assert helpers.phi_sizes(3, [0, 2]) == helpers.phi_sizes(2, [-1, 1]) == 0
        assert counting._phi_suffixes(3, [0, 2], weights, 0) == [0, 4, 6]
        assert counting._phi_suffixes(3, [0, 2], weights, 1) == [4, 6]
        assert counting._phi_suffixes(2, [-1, 1], weights, 0) == [0, 1, 2]
        assert helpers.phi_sizes(3, [2]) == 4 and helpers.phi_sizes(2, [1]) == 1


class TestPhi:
    """A record's phi, from the closed form its draws read, against the
    peel-off recurrence and the enumeration."""

    def test_every_chain_up_to_14_matches_the_recurrence(self):
        for k in range(2, 15):
            for ell in range(1, k):
                for sizes in itertools.combinations(range(1, k), ell):
                    assert counting._phi(k, sizes) == helpers.phi_sizes(k, sizes), (k, sizes)

    def test_matches_the_enumeration_up_to_7(self):
        for k in range(2, 8):
            for ell in range(1, k):
                for sizes in itertools.combinations(range(1, k), ell):
                    chain = [set(range(s)) for s in sizes]
                    assert counting._phi(k, sizes) == helpers.phi_naive(range(k), chain), (k, sizes)

    def test_no_chain_is_factorial(self):
        for k in range(20):
            assert counting._phi(k, ()) == math.factorial(k)

    @pytest.mark.parametrize("g", [gen_peo(120, 3, 4), gen_interval(60, 5)], ids=["peo", "interval"])
    def test_explore_reads_the_chain_weights_once_per_chained_record(self, g, monkeypatch):
        calls = []
        weights = counting._chain_weights
        monkeypatch.setattr(counting, "_chain_weights",
                            lambda total, sizes: calls.append(total) or weights(total, sizes))
        model = explore(g)
        chained = [r for e in model.entries.values() for r in e.records if r.chain]
        assert chained and len(calls) == len(chained)
        assert sorted(calls) == sorted(r.clique.bit_count() for r in chained)


def test_factorial_table_is_extended_by_one_thread_at_a_time():
    # eight threads extend the process-wide table from [1] at once, with a
    # thread switch every microsecond; a read-modify-write that lost the
    # race would leave a wrong entry or a table longer than asked
    table = counting._FACT
    saved = list(table)
    interval = sys.getswitchinterval()
    try:
        table[:] = [1]
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=factorial, args=(2000,)) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert len(table) == 2001
        assert all(table[i] == math.factorial(i) for i in range(len(table)))
    finally:
        sys.setswitchinterval(interval)
        table[:] = saved


class TestFpChains:
    def test_three_clique_chain(self):
        g = helpers.three_clique_chain()
        t = clique_tree(g)
        chains = fp_chains(t)
        by_clique = dict(zip(t.cliques, chains))
        m = helpers.vertex_mask
        assert by_clique[m((0, 1, 2))] == ()
        assert by_clique[m((1, 2, 3, 4))] == (m((1, 2)),)
        assert by_clique[m((1, 2, 4, 5))] == (m((1, 2)), m((1, 2, 4)))

    def test_single_node_tree(self):
        t = clique_tree(helpers.complete_graph(4))
        assert fp_chains(t) == ((),)

    def test_path4_drops_non_subset_separator(self):
        # chain of cliques {0,1},{1,2},{2,3}: the separator {1} is not inside
        # {2,3}, so only {2} survives there
        g = helpers.path_graph(4)
        t = clique_tree(g)
        chains = fp_chains(t)
        by_clique = dict(zip(t.cliques, chains))
        m = helpers.vertex_mask
        assert by_clique[m((0, 1))] == ()
        assert by_clique[m((1, 2))] == (m((1,)),)
        assert by_clique[m((2, 3))] == (m((2,)),)

    def test_chains_always_strictly_nested(self):
        for g in helpers.random_chordal_corpus(30, 2, 14, seed=67):
            for rng in (None, random.Random(3)):
                t = clique_tree(g, rng=rng)
                for i, chain in enumerate(fp_chains(t)):
                    clique = set(mask_bits(t.cliques[i]))
                    prev = None
                    for s in map(set, map(mask_bits, chain)):
                        assert s < clique
                        if prev is not None:
                            assert prev < s
                        prev = s


class TestCountAmos:
    def test_three_clique_chain_is_54(self):
        assert precount(helpers.three_clique_chain()).total == 54

    def test_complete_graphs(self):
        for n in range(1, 9):
            assert precount(helpers.complete_graph(n)).total == factorial(n)

    def test_path3(self):
        assert precount(helpers.path_graph(3)).total == 3

    def test_seven_vertex_chain_frozen_oracle_value(self):
        g = helpers.clique_chain_7()
        assert len(enumerate_amos(g)) == 104
        assert precount(g).total == 104

    def test_oracle_equivalence_on_corpus(self):
        for g in helpers.random_chordal_corpus(40, 2, 8, seed=71, max_edges=14):
            expected = len(enumerate_amos(g))
            assert precount(g).total == expected
            assert count_root_picking(g) == expected

    def test_separator_formula_cross_check(self):
        for g in helpers.random_chordal_corpus(30, 2, 8, seed=73):
            assert helpers.count_by_separator_formula(g) == precount(g).total

    def test_separator_formula_terms_on_three_clique_chain(self):
        g = helpers.three_clique_chain()
        t = clique_tree(g)
        seps = {tuple(mask_bits(s)) for s in t.separators if s is not None}
        phis = {
            s: helpers.phi_naive(s, [set(x) for x in seps if set(x) < set(s)])
            for s in set(helpers.clique_tuples(t)) | seps
        }
        assert phis == {
            (1, 2): 2,
            (1, 2, 4): 4,
            (0, 1, 2): 4,
            (1, 2, 3, 4): 16,
            (1, 2, 4, 5): 16,
        }

    def test_clique_tree_invariance(self):
        for g in helpers.random_chordal_corpus(12, 3, 24, seed=79):
            base = precount(g).total
            for seed in range(8):
                assert precount(g, seed=seed).total == base

    def test_bounds(self):
        for g in helpers.random_chordal_corpus(25, 1, 10, seed=83):
            c = precount(g).total
            assert g.n <= c <= factorial(g.n)

    def test_deep_path_does_not_overflow_stack(self):
        assert precount(helpers.path_graph(600)).total == 600

    def test_unchecked_cycle_is_rejected(self):
        # a Uccg built without validation reaches the counter unchecked; the
        # 4-cycle has no AMO, and its clique-tree sweep raises
        g = helpers.unchecked_uccg(4, helpers.cycle_edges(4))
        assert enumerate_amos(g) == []
        with pytest.raises(NotChordalError):
            precount(g)


class TestCountCpdag:
    def test_mixed_graph_counts_undirected_part(self):
        g = helpers.three_clique_chain()
        # the collider 5 -> 7 <- 6 protects both arrows
        pg = PartialGraph.from_edges(8, list(g.edges()), [(5, 7), (6, 7)])
        assert count_cpdag(pg) == 54
        # the lone arrow 6 -> 7 is not strongly protected
        lone = PartialGraph.from_edges(8, list(g.edges()), [(6, 7)])
        with pytest.raises(NotCpdagError, match="not strongly protected"):
            count_cpdag(lone)

    def test_fully_directed(self):
        # a collider and an arrow out of it, each strongly protected
        pg = PartialGraph.from_edges(4, [], [(0, 2), (1, 2), (2, 3)])
        assert count_cpdag(pg) == 1
        path = PartialGraph.from_edges(4, [], [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(NotCpdagError, match="not strongly protected"):
            count_cpdag(path)

    def test_rejects_every_kind_of_non_cpdag_in_order(self):
        cases = {
            "partially directed cycle": PartialGraph.from_edges(3, [], [(0, 1), (1, 2), (2, 0)]),
            "induced a -> b - c": PartialGraph.from_edges(3, [(1, 2)], [(0, 1)]),
            "not strongly protected": PartialGraph.from_edges(2, [], [(0, 1)]),
        }
        for reason, pg in cases.items():
            with pytest.raises(NotCpdagError, match=reason):
                count_cpdag(pg)
        # a component that is not chordal is reported before the arrows
        cycle = PartialGraph.from_edges(5, helpers.cycle_edges(4), [(0, 4)])
        with pytest.raises(NotChordalError):
            count_cpdag(cycle)

    def test_two_disjoint_triangles(self):
        pg = PartialGraph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        assert count_cpdag(pg) == 36

    def test_product_over_components(self):
        for g1 in helpers.random_chordal_corpus(5, 2, 6, seed=89):
            for g2 in helpers.random_chordal_corpus(5, 2, 6, seed=97):
                shift = g1.n
                edges = list(g1.edges()) + [
                    (u + shift, v + shift) for u, v in g2.edges()
                ]
                pg = PartialGraph.from_edges(g1.n + g2.n, edges)
                assert count_cpdag(pg) == precount(g1).total * precount(g2).total

    @pytest.mark.parametrize("g", [gen_peo(120, 3, 4), gen_interval(60, 5), helpers.complete_graph(6)],
                             ids=["peo", "interval", "complete"])
    def test_a_count_builds_no_record_of_a_complete_subgraph(self, g, monkeypatch):
        built = []
        record = counting.CliqueRecord
        monkeypatch.setattr(counting, "CliqueRecord", lambda *args: built.append(args) or record(*args))
        model = explore(g)
        records = sum(len(entry.records) for entry in model.entries.values())
        # every explored subgraph has its total, and only those that are not
        # complete have an entry; a complete one counts k!
        complete = {key for key in model.totals if helpers.is_complete(g, key)}
        assert complete and model.entries.keys() == model.totals.keys() - complete
        assert all(model.totals[key] == factorial(key.bit_count()) for key in complete)
        assert all(model.totals[key] == entry.total for key, entry in model.entries.items())
        assert all(isinstance(args[2], subproblems.Components) for args in built)
        assert len(built) == records
        built.clear()
        assert count_cpdag(g.as_partial_graph()) == model.total
        assert len(built) == records


class TestCountWithStats:
    def test_complete_graph_explores_once(self):
        stats = count_with_stats(helpers.complete_graph(6))
        assert stats.explored == 1
        assert stats.max_cliques == 1

    def test_three_clique_chain_bound(self):
        stats = count_with_stats(helpers.three_clique_chain())
        assert stats.count == 54
        assert stats.max_cliques == 3
        assert stats.explored <= 2 * 3 - 1

    def test_subproblem_bound_on_corpus(self):
        for g in helpers.random_chordal_corpus(40, 2, 16, seed=101):
            stats = count_with_stats(g)
            assert stats.explored <= 2 * stats.max_cliques - 1


class TestDeadline:
    @staticmethod
    def fake_clock(monkeypatch) -> list:
        """Make ``time.monotonic`` read 1, 2, 3, ... and log each reading."""
        calls = []

        def clock():
            calls.append(None)
            return float(len(calls))

        monkeypatch.setattr(counting.time, "monotonic", clock)
        return calls

    @pytest.mark.parametrize("allowed", [0, 5, 166])
    def test_a_deadline_stops_after_the_records_the_clock_allows(self, monkeypatch, allowed):
        g = gen_peo(200, 1, 1)  # a root of 167 cliques
        calls = self.fake_clock(monkeypatch)
        with pytest.raises(TimeoutError) as exc:
            explore(g, deadline=allowed)
        assert len(calls) == allowed + 1
        assert str(exc.value) == (
            f"deadline passed with 0 subgraphs explored and {allowed} of 167 records of the next done"
        )

    def test_the_clock_is_read_once_per_record(self, monkeypatch):
        g = gen_peo(200, 1, 1)
        model = explore(g)
        records = sum(len(entry.records) for entry in model.entries.values())
        calls = self.fake_clock(monkeypatch)
        assert explore(g, deadline=records).entries == model.entries
        assert len(calls) == records
        calls.clear()
        trees = []
        real_tree = counting.clique_tree
        monkeypatch.setattr(counting, "clique_tree", lambda *args: trees.append(args) or real_tree(*args))
        # one reading short: the last record of the last subgraph that is
        # not complete is not done
        with pytest.raises(TimeoutError) as exc:
            explore(g, deadline=records - 1)
        assert len(calls) == records
        found = re.fullmatch(
            r"deadline passed with (\d+) subgraphs explored and (\d+) of (\d+) records of the next done",
            str(exc.value),
        )
        explored, done, of = map(int, found.groups())
        # every subgraph whose tree was built before the one in hand, the
        # complete ones, which have no record, included
        assert (explored, done) == (len(trees) - 1, of - 1)
        assert explored > len(model.entries) - 1

    def test_without_a_deadline_the_clock_is_never_read(self, monkeypatch):
        calls = self.fake_clock(monkeypatch)
        for g in [gen_peo(200, 1, 1), *helpers.random_chordal_corpus(20, 2, 16, seed=7)]:
            explore(g)
            explore(g, seed=3)
        assert calls == []

    def test_a_far_deadline_changes_no_record(self):
        far = time.monotonic() + 1e6
        for g in [gen_peo(200, 1, 1), *helpers.random_chordal_corpus(20, 2, 16, seed=7)]:
            assert explore(g, deadline=far).entries == explore(g).entries
            assert explore(g, 3, far).entries == explore(g, 3).entries


def spanning_tree(g) -> list[tuple[int, int]]:
    """The edges of a depth-first spanning tree of the connected graph ``g``."""
    seen = {0}
    stack = [0]
    edges = []
    while stack:
        u = stack.pop()
        for v in g.adj[u]:
            if v not in seen:
                seen.add(v)
                edges.append((u, v))
                stack.append(v)
    return edges


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(helpers.chordal_graphs(), st.lists(st.integers(0, 2**16), min_size=2, max_size=2))
def test_model_totals_match_the_oracles_on_chordal_graphs(g, seeds):
    model = precount(g)
    total = model.total
    assert total == count_root_picking(g)
    if g.m <= 24:
        assert total == len(enumerate_amos(g))
    assert all(precount(g, seed).total == total for seed in seeds)
    # each record's weight, phi times its children's totals, is one step of
    # its entry's cumulative sums, which end at the entry's total
    for key, entry in model.entries.items():
        steps = [
            math.prod((model.totals[c] for c in r.child_keys), start=r.phi)
            for r in entry.records
        ]
        assert helpers.record_weights(entry) == steps
        assert entry.cumulative[-1] == entry.total == model.totals[key]
    # a subgraph with no entry is complete and counts k!
    for key in model.totals.keys() - model.entries.keys():
        assert helpers.is_complete(g, key) and model.totals[key] == factorial(key.bit_count())
    assert precount(helpers.complete_graph(g.n)).total == factorial(g.n)
    assert precount(Uccg.from_edges(range(g.n), spanning_tree(g))).total == g.n


def test_records_are_root_local_on_relabelled_components():
    # components of a many-component CPDAG keep their global labels, which
    # are not 0..n-1; every record's clique is a mask inside its key's
    # root-local mask, and its chain a strictly nested run of masks of proper
    # subsets of the clique
    checked = 0
    for seed in range(4):
        for comp in undirected_components(helpers.many_component_cpdag(seed)):
            if comp.labels == tuple(range(comp.n)):
                continue
            for key, entry in precount(comp).entries.items():
                for r in entry.records:
                    assert type(r.clique) is int and r.clique & key == r.clique
                    assert type(r.chain) is tuple and all(type(x) is int for x in r.chain)
                    for inner, outer in zip(r.chain, r.chain[1:] + (r.clique,)):
                        assert inner & outer == inner != outer
                    checked += 1
    assert checked > 100


def two_cliques(a: int, b: int, s: int) -> Uccg:
    """K_a on ``0..a-1`` and K_b on ``a-s..a+b-s-1``, sharing ``s`` vertices."""
    edges = itertools.chain(
        itertools.combinations(range(a), 2), itertools.combinations(range(a - s, a + b - s), 2)
    )
    return Uccg.from_edges(range(a + b - s), set(edges))


def two_cliques_closed_form(a: int, b: int, s: int) -> int:
    """He, Jia & Yu (JMLR 2015): the AMOs of K_a and K_b sharing s vertices."""
    f = factorial
    return f(a) * f(b - s) + (f(b) - f(s) * f(b - s)) * f(a - s)


def test_two_cliques_closed_form_holds_where_the_oracle_reaches():
    for a in range(2, 7):
        for b in range(2, 7):
            for s in range(1, min(a, b)):
                assert count_root_picking(two_cliques(a, b, s)) == two_cliques_closed_form(a, b, s)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 60), st.integers(2, 60), st.data())
def test_two_cliques_sharing_a_separator_match_the_closed_form(a, b, data):
    s = data.draw(st.integers(1, min(a, b) - 1))
    want = two_cliques_closed_form(a, b, s)
    assert precount(two_cliques(a, b, s)).total == want
    assert precount(two_cliques(b, a, s), seed=s).total == want


def test_complete_graph_minus_an_edge_matches_the_closed_form():
    # K_n minus one edge is two K_{n-1} sharing n - 2 vertices
    for n in (3, 10, 40, 120):
        g = Uccg.from_edges(range(n), set(itertools.combinations(range(n), 2)) - {(0, n - 1)})
        assert precount(g).total == two_cliques_closed_form(n - 1, n - 1, n - 2)
        assert precount(g).total == 2 * factorial(n - 1) - factorial(n - 2)


def count_spied(monkeypatch, g) -> tuple[int, list[int], list[tuple[int, int]], list[int]]:
    """``count_cpdag`` of ``g``, with what it did: the length of every
    ``Components`` it made, per explored subgraph that is not complete its
    clique count and region products, and the cliques of the traversals its
    ``Components`` ran to order child keys."""
    lengths, products, orderings = [], [], []
    real_step = counting.components_after_clique
    real_weights = counting._region_weights
    real_order = subproblems.components_by_traversal

    def step(*args):
        comps = real_step(*args)
        lengths.append(len(comps))
        return comps

    def weights(heads, entries):
        out = real_weights(heads, entries)
        products.append((len(heads), len(out)))
        return out

    def order(g, clique, sub=None):
        orderings.append(clique)
        return real_order(g, clique, sub)

    with monkeypatch.context() as m:
        m.setattr(counting, "components_after_clique", step)
        m.setattr(counting, "_region_weights", weights)
        m.setattr(subproblems, "components_by_traversal", order)
        total = count_cpdag(g.as_partial_graph())
    return total, lengths, products, orderings


def test_a_count_multiplies_region_weights_and_orders_no_child_keys(monkeypatch):
    # on the sparse trees gen_peo(n, 1, 1) the records' child keys grow as
    # n^2; the count's work must grow with the tree edges instead
    keys, products = [], []
    for n in (100, 200, 400):
        g = gen_peo(n, 1, 1)
        total, lengths, weighed, orderings = count_spied(monkeypatch, g)
        assert total == precount(g).total
        assert orderings == []
        # one product per directed tree edge of each explored subgraph
        assert all(made == 2 * (cliques - 1) for cliques, made in weighed)
        keys.append(sum(lengths))
        products.append(sum(made for _, made in weighed))
    for i in (1, 2):
        assert 3.5 < keys[i] / keys[i - 1] < 4.5
        assert products[i] / products[i - 1] < 2.5


def test_the_records_summed_lengths_are_their_child_keys(monkeypatch):
    g = gen_peo(100, 1, 1)
    _, lengths, _, _ = count_spied(monkeypatch, g)
    model = precount(g)
    assert sum(lengths) == sum(len(r.child_keys) for e in model.entries.values() for r in e.records)


def test_a_long_path_is_counted_and_drawn_without_deep_recursion():
    # 4,999 cliques in a chain: regions open regions 4,998 deep, and the
    # records' child keys number about n^2 / 2, which a count never orders;
    # runs under the interpreter's default recursion limit
    n = 5000
    path = helpers.path_graph(n)
    assert count_cpdag(path.as_partial_graph()) == n
    # a model read lazily: a draw orders only the records it reads
    dag = sample_cpdag(path.as_partial_graph(), [explore(path)], random.Random(5))
    assert dag.skeleton() == {(i, i + 1) for i in range(n - 1)}
    indegree = [0] * n
    for _, v in dag.edges():
        indegree[v] += 1
    assert max(indegree) == 1  # no collider: a member of the path's class
