"""Random chordal graph generators.

Core claims:
    - every generator yields a connected chordal graph on n vertices and is
      deterministic in its seed
    - the subtree model's density grows with k; singleton subtrees (k=1)
      produce disjoint-clique intersections
    - random interval graphs approach density 2/3
    - the elimination-ordering model stays sparse for k=1 and produces more
      maximal cliques than the subtree model at comparable density
    - tree thickening hits exactly min(k*n, C(n,2)) edges
"""

import random
import statistics

import pytest

from mectools import gen_interval, gen_peo, gen_subtree, gen_thicken, is_chordal
from mectools.chordal import clique_tree
from mectools.generators import (
    GenerationError,
    _prufer_tree,
    _subtree_intersection_edges,
)


def density(g) -> float:
    return g.m / (g.n * (g.n - 1) / 2)


class TestPruferTrees:
    def test_tree_shape(self):
        rng = random.Random(0)
        for n in (1, 2, 3, 10, 50):
            edges = _prufer_tree(n, rng)
            assert len(edges) == max(0, n - 1)
            from mectools import Uccg

            if n >= 1:
                g = Uccg.from_edges(range(n), edges)
                assert g.m == n - 1  # connected with n-1 edges: a tree

    def test_deterministic(self):
        assert _prufer_tree(20, random.Random(7)) == _prufer_tree(20, random.Random(7))


class TestGenSubtree:
    def test_basic_properties(self):
        for seed in range(5):
            g = gen_subtree(16, 4, seed=seed)
            assert g.n == 16
            assert is_chordal(g)

    def test_seed_determinism(self):
        assert gen_subtree(24, 3, seed=11).adj == gen_subtree(24, 3, seed=11).adj

    def test_singleton_subtrees_make_disjoint_cliques(self):
        # k=1 draws every subtree size from {1}: edges exist only between
        # subtrees sitting on the same tree node, i.e. the graph is a disjoint
        # union of cliques (one per tree node)
        rng = random.Random(13)
        edges = _subtree_intersection_edges(12, 1, rng)
        rng = random.Random(13)
        tree_of = {}
        # rebuild the assignment: same rng stream, sizes are all 1
        tree = _prufer_tree(12, rng)
        for i in range(12):
            assert rng.randint(1, 1) == 1
            tree_of[i] = rng.randrange(12)
        for u, v in edges:
            assert tree_of[u] == tree_of[v]

    def test_k1_rarely_connects_raises(self):
        with pytest.raises(GenerationError):
            gen_subtree(12, 1, seed=3)

    def test_density_grows_with_k(self):
        # sqrt-of-n beats log-of-n as the size parameter (n=64: 8 vs 6)
        n = 64
        dense = statistics.mean(density(gen_subtree(n, 8, seed=s)) for s in range(10))
        sparse = statistics.mean(density(gen_subtree(n, 6, seed=s)) for s in range(10))
        assert dense > sparse


class TestGenInterval:
    def test_containment_overlap(self):
        # two intervals where one contains the other must meet
        g = gen_interval(2, seed=0)
        # with n=2 the generator retries until the pair intersects
        assert g.m == 1

    def test_chordal_connected(self):
        for seed in range(8):
            g = gen_interval(20, seed=seed)
            assert g.n == 20
            assert is_chordal(g)

    def test_seed_determinism(self):
        assert gen_interval(30, seed=5).adj == gen_interval(30, seed=5).adj

    def test_density_near_two_thirds(self):
        mean = statistics.mean(density(gen_interval(512, seed=s)) for s in range(10))
        assert abs(mean - 2 / 3) < 0.1


class TestGenPeo:
    def test_chordal_connected(self):
        for seed in range(8):
            g = gen_peo(32, 2, seed=seed)
            assert g.n == 32
            assert is_chordal(g)

    def test_seed_determinism(self):
        assert gen_peo(40, 3, seed=2).adj == gen_peo(40, 3, seed=2).adj

    def test_k1_sparse(self):
        g = gen_peo(256, 1, seed=1)
        assert density(g) < 0.05

    def test_more_cliques_than_subtree_at_similar_density(self):
        # elimination-ordering graphs fragment into many maximal cliques
        peo_cliques = statistics.mean(
            len(clique_tree(gen_peo(64, 2, seed=s)).cliques) for s in range(8)
        )
        subtree_cliques = statistics.mean(
            len(clique_tree(gen_subtree(64, 6, seed=s)).cliques) for s in range(8)
        )
        assert peo_cliques > subtree_cliques


class TestGenThicken:
    def test_exact_edge_counts(self):
        g = gen_thicken(64, 3, seed=5)
        assert g.m == 192
        assert is_chordal(g)

    def test_small_k_adds_one_chord(self):
        g = gen_thicken(16, 1, seed=2)
        assert g.m == 16  # tree plus one chordality-preserving edge

    def test_target_capped_at_complete(self):
        g = gen_thicken(5, 10, seed=0)
        assert g.m == 10  # C(5,2)

    def test_seed_determinism(self):
        assert gen_thicken(20, 2, seed=9).adj == gen_thicken(20, 2, seed=9).adj

    def test_chordal_at_various_densities(self):
        for k in (1, 2, 4):
            g = gen_thicken(24, k, seed=k)
            assert is_chordal(g)
            assert g.m == min(24 * k, 24 * 23 // 2)
