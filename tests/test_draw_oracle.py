"""Permutation draws from chain sizes against the table-based draw.

Core claims:
    - a model draw equals the table-based draw (``helpers.table_draw_order``)
      on small instances of the benchmark workloads: same ordering, same
      randomness consumed
    - ``draw_perm`` equals ``helpers.table_draw_perm`` on cliques of every
      size ``k`` from 1 to 12 and nested chains of every length up to
      ``k - 1``
    - on small cliques with long chains, the step weights give every
      admissible permutation probability exactly 1/phi
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import helpers
from mectools import precount, undirected_components
from mectools.sampling import _draw_order, draw_perm

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import count_dense, cpdag_many, sample_sparse  # noqa: E402

SMALL_WORKLOADS = (
    lambda seed: count_dense(seed, comps=2, n=40),
    lambda seed: sample_sparse(seed, comps=2, n=80),
    lambda seed: cpdag_many(seed, comps=60, hi=32, colliders=30),
)


def nested_chain(rng: random.Random, clique: list[int], length: int) -> list[tuple[int, ...]]:
    """A strictly nested chain of ``length`` proper subsets of ``clique``,
    each set listed in shuffled order."""
    order = rng.sample(clique, len(clique))
    sizes = sorted(rng.sample(range(1, len(clique)), length))
    return [tuple(rng.sample(order[:s], s)) for s in sizes]


def test_model_draws_match_the_table_oracle_on_workload_corpora():
    for build in SMALL_WORKLOADS:
        for seed in (0, 1):
            models = [precount(c) for c in undirected_components(build(seed))]
            fast, slow = random.Random(seed), random.Random(seed)
            for _ in range(3):
                for model in models:
                    assert _draw_order(model, fast) == helpers.table_draw_order(model, slow)
            assert fast.random() == slow.random()


def test_draw_perm_matches_the_table_oracle_on_long_nested_chains():
    rng = random.Random(2023)
    for k in range(1, 13):
        for length in range(k):
            for _ in range(6):
                clique = rng.sample(range(1000), k)
                chain = nested_chain(rng, clique, length)
                seed = rng.randrange(2**31)
                fast, slow = random.Random(seed), random.Random(seed)
                masks = helpers.vertex_mask(clique), tuple(map(helpers.vertex_mask, chain))
                for _ in range(5):
                    perm = draw_perm(*masks, fast)
                    assert perm == helpers.table_draw_perm(clique, chain, slow)
                    assert all(set(perm[: len(x)]) != set(x) for x in chain)
                assert fast.random() == slow.random()


def test_step_weights_are_exactly_uniform_on_long_chains():
    rng = random.Random(77)
    for k in range(2, 7):
        for length in range(k):
            clique = rng.sample(range(50), k)
            chain = nested_chain(rng, clique, length)
            phi = helpers.phi_naive(clique, chain)
            dist = dict(helpers.perm_paths(clique, chain))
            assert len(dist) == phi
            assert all(p == Fraction(1, phi) for p in dist.values())
            assert all(all(set(p[: len(x)]) != set(x) for x in chain) for p in dist)
