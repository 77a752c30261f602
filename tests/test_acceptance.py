"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import itertools
import random
import time
from fractions import Fraction

import helpers
from mectools import (
    Uccg,
    count_cpdag,
    count_root_picking,
    enumerate_amos,
    gen_interval,
    gen_subtree,
    precount,
)
from mectools.chordal import clique_tree, lbfs
from mectools.counting import count_with_stats
from mectools.sampling import sample_amo
from mectools.subproblems import components_by_traversal
from mectools.generators import _prufer_tree

CHI2_999_53 = 90.5734


def report(num: int, description: str, ok: bool, detail: str = ""):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_worked_example_exact():
    g = helpers.three_clique_chain()
    model = precount(g)
    ok = model.total == 54
    entry = model.entries[helpers.key_of(model, g.labels)]
    terms = sorted(zip((r.phi for r in entry.records), helpers.record_weights(entry)))
    ok &= terms == [(6, 18), (16, 16), (20, 20)]
    ok &= helpers.phi_chain({2, 3, 4, 5}, [{2, 3}, {2, 3, 5}]) == 16
    ok &= helpers.phi_chain({2, 3, 4, 5}, [{2, 3}]) == 20
    ok &= helpers.phi_chain({1, 2, 3}, []) == 6
    best = min(
        _timed(lambda: precount(helpers.three_clique_chain()).total) for _ in range(20)
    )
    ok &= best < 1e-3
    report(1, "worked example: count 54, terms 6*3+20*1+16*1, phi exact", ok,
           f"best count time {best * 1e6:.0f}us")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _oracle_corpus():
    return helpers.random_chordal_corpus(200, 2, 8, seed=2021, max_edges=14)


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    corpus = _oracle_corpus()
    agree = 0
    for g in corpus:
        a = len(enumerate_amos(g))
        b = count_root_picking(g)
        c = precount(g).total
        if a == b == c:
            agree += 1
    elapsed = time.perf_counter() - start
    ok = agree == len(corpus) >= 200 and elapsed < 60
    report(2, "oracle equivalence on 200 random chordal graphs (n<=8)", ok,
           f"{agree}/{len(corpus)} agree in {elapsed:.1f}s")


def test_criterion_03_separator_formula_cross_check():
    corpus = _oracle_corpus()
    bad = sum(
        1 for g in corpus if helpers.count_by_separator_formula(g) != precount(g).total
    )
    report(3, "separator-sum formula equals the clique-tree count", bad == 0,
           f"{len(corpus) - bad}/{len(corpus)}")


def test_criterion_04_subproblem_bound():
    checked = 0
    worst = 0.0
    for g in _oracle_corpus() + helpers.random_chordal_corpus(40, 2, 32, seed=4242):
        stats = count_with_stats(g)
        bound = 2 * stats.max_cliques - 1
        if stats.explored > bound:
            report(4, "explored subgraphs within 2*cliques-1", False,
                   f"violated on {g.labels}")
        worst = max(worst, stats.explored / bound)
        checked += 1
    report(4, "explored subgraphs within 2*cliques-1 on every counted instance",
           True, f"{checked} instances, worst ratio {worst:.2f}")


def test_criterion_05_clique_tree_invariance():
    corpus = helpers.random_chordal_corpus(20, 4, 64, seed=555)
    ok = True
    for g in corpus:
        reference = precount(g).total
        for seed in range(10):
            if precount(g, seed=seed).total != reference:
                ok = False
    report(5, "counts identical across 10 seeded clique trees for 20 graphs", ok)


def test_criterion_06_permutation_independence():
    corpus = helpers.random_chordal_corpus(50, 2, 10, seed=666, max_clique=5)
    checked = 0
    ok = True
    for g in corpus:
        cliques: set[frozenset] = set()
        for mc in helpers.brute_maximal_cliques(g):
            for r in range(1, len(mc) + 1):
                cliques.update(map(frozenset, itertools.combinations(sorted(mc), r)))
        for clique in cliques:
            base = {helpers.labels_of(g, c) for c in components_by_traversal(g, helpers.vertex_mask(clique))}
            for perm in itertools.permutations(sorted(clique)):
                got = {c.labels for c in helpers.components_after_permutation(g, perm)}
                checked += 1
                if got != base:
                    ok = False
    report(6, "clique-order independence for all cliques and permutations", ok,
           f"{checked} permutation runs over {len(corpus)} graphs")


def _small_connected_chordal_instances():
    out = []
    # every labeled connected chordal graph on up to 4 vertices
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            try:
                out.append(Uccg.from_edges(range(n), edges))
            except ValueError:
                continue
    out.extend(helpers.random_chordal_corpus(15, 5, 6, seed=777))
    return out


def test_criterion_07_sampler_exact_uniformity():
    instances = _small_connected_chordal_instances()
    ok = len(instances) >= 50
    for g in instances:
        model = precount(g)
        dist = helpers.exact_sampler_distribution(g, model)
        total = precount(g).total
        if len(dist) != total or any(p != Fraction(1, total) for p in dist.values()):
            ok = False
    report(7, "symbolic sampler distribution is exactly uniform (n<=6)", ok,
           f"{len(instances)} instances")


def test_criterion_08_sampler_statistical_uniformity():
    g = helpers.three_clique_chain()
    model = precount(g)
    rng = random.Random(540000)
    start = time.perf_counter()
    counts: dict = {}
    for _ in range(54000):
        edges = sample_amo(g, model, rng).edge_set()
        counts[edges] = counts.get(edges, 0) + 1
    elapsed = time.perf_counter() - start
    mean = 54000 / 54
    chi2 = sum((c - mean) ** 2 / mean for c in counts.values())
    acyclic = all(helpers.kahn_acyclic(g.n, edges) for edges in counts)
    ok = len(counts) == 54 and chi2 < CHI2_999_53 and elapsed < 10 and acyclic
    report(8, "54000 samples on the 54-orientation graph pass chi-square", ok,
           f"chi2={chi2:.1f} < {CHI2_999_53}, {elapsed:.1f}s")


def test_criterion_09_desk_scale_performance():
    g1 = gen_subtree(1024, 10, seed=90)
    t1 = _timed(lambda: count_cpdag(g1.as_partial_graph()))
    g2 = gen_interval(512, seed=91)
    t2 = _timed(lambda: count_cpdag(g2.as_partial_graph()))
    ok = t1 < 60 and t2 < 120
    report(9, "subtree n=1024 under 60s and interval n=512 under 120s", ok,
           f"subtree {t1:.1f}s, interval {t2:.1f}s")


def test_criterion_10_complete_graph_and_tree_laws():
    ok = True
    fact = 1
    for n in range(1, 21):
        fact *= n
        if precount(helpers.complete_graph(n)).total != fact:
            ok = False
    rng = random.Random(1010)
    for _ in range(10):
        n = rng.randint(2, 100)
        tree = Uccg.from_edges(range(n), _prufer_tree(n, rng))
        if precount(tree).total != n:
            ok = False
    report(10, "count(K_n)=n! for n<=20 and count(tree)=n for n<=100", ok)


def test_criterion_11_ordering_properties():
    ok_peo = True
    for g in helpers.random_chordal_corpus(1000, 2, 24, seed=1111):
        if not helpers.list_is_peo(g, lbfs(g)[::-1]):
            ok_peo = False
    corpus = helpers.random_chordal_corpus(25, 2, 7, seed=1212, max_edges=13)
    ok_rev = ok_start = ok_prefix = True
    for g in corpus:
        t = clique_tree(g)
        cliques = set(map(frozenset, helpers.clique_tuples(t)))
        candidates = set(cliques)
        candidates.update(map(frozenset, helpers.minimal_separators(t)))
        for dag in enumerate_amos(g):
            orderings = helpers.topological_orderings_of_amo(g, dag)
            if not all(helpers.list_is_peo(g, tuple(reversed(tau))) for tau in orderings):
                ok_rev = False
            started = [
                tau
                for tau in orderings
                if any(frozenset(tau[: len(c)]) == c for c in cliques)
            ]
            if not started:
                ok_start = False
            elif not any(
                all(frozenset(tau[: len(s)]) == s for tau in started)
                for s in candidates
            ):
                ok_prefix = False
    report(
        11,
        "1000x reverse-LBFS is an elimination ordering; orientation orderings "
        "reverse to elimination orderings, reach a maximal-clique start, and "
        "clique-started ones share a separator-or-clique prefix",
        ok_peo and ok_rev and ok_start and ok_prefix,
    )
