"""Permutation draws from chain sizes against the table-based draw.

Core claims:
    - a model draw equals the table-based draw (``helpers.table_draw_order``)
      on small instances of the benchmark workloads: same ordering, same
      randomness consumed
    - ``draw_perm`` equals ``helpers.table_draw_perm`` on cliques of every
      size ``k`` from 1 to 12 and nested chains of every length up to
      ``k - 1``
    - ``draw_perm``'s walk over runs of one class equals
      ``helpers.scan_draw_perm``, the scan of every remaining vertex, on
      every chained record of count-dense at seed 91 and of
      ``gen_interval(1000, 1)``, and on hand-built chains of length 1 to 4
      whose runs lie at either end or hold a weight of zero: same
      permutations, on the record's first draw and on draws that read its
      kept listing, and the same randomness consumed
    - on small cliques with long chains, the step weights give every
      admissible permutation probability exactly 1/phi
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import helpers
from mectools import parse_graph, precount, undirected_components
from mectools.counting import explore
from mectools.generators import gen_interval
from mectools.sampling import _draw_order, draw_perm

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import build_text, count_dense, cpdag_many, sample_sparse  # noqa: E402

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
                record = helpers.perm_record(
                    helpers.vertex_mask(clique), map(helpers.vertex_mask, chain))
                for _ in range(5):
                    perm = draw_perm(record, fast)
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


def assert_runs_pick_as_the_scan(records, seed: int, draws: int = 2) -> int:
    """Each record's first ``draws`` draws against the scan's from a
    generator seeded alike; returns how many records were compared."""
    seeds = random.Random(seed)
    for record in records:
        s = seeds.getrandbits(32)
        fast, slow = random.Random(s), random.Random(s)
        for _ in range(draws):
            assert draw_perm(record, fast) == helpers.scan_draw_perm(
                record.clique, record.chain, slow)
        assert fast.getstate() == slow.getstate()
    return len(records)


def chained_records(comps) -> list:
    return [r for c in comps for e in explore(c).entries.values() for r in e.records if r.chain]


def test_the_run_walk_picks_as_the_scan_on_count_dense():
    comps = undirected_components(parse_graph(build_text("count-dense", 91)))
    assert assert_runs_pick_as_the_scan(chained_records(comps), 91) == 580


def test_the_run_walk_picks_as_the_scan_on_a_large_interval_graph():
    # cliques of up to 507 vertices; one draw each, the scan takes seconds
    records = chained_records([gen_interval(1000, 1)])
    assert assert_runs_pick_as_the_scan(records, 1, draws=1) == 358


def classed_chain(classes: list[int], ell: int) -> tuple[int, ...]:
    """The chain whose set ``i`` holds the vertices ``3 * v`` with
    ``classes[v] <= i``, so vertex ``3 * v`` has class ``classes[v]``."""
    return tuple(
        helpers.vertex_mask(3 * v for v, c in enumerate(classes) if c <= i) for i in range(ell))


def test_the_run_walk_picks_as_the_scan_on_hand_built_chains():
    records = []
    for ell in range(1, 5):
        for k in range(ell + 1, ell + 6):
            # classes 0, 1, ..., ell - 1 once each, then free vertices: each
            # set is one vertex larger than the set before it, so set 0 is
            # one vertex, which weighs 0 at the first position, and at
            # k = ell + 1 the last set is one short of the clique.  In low
            # the one-vertex runs lie at the low end and the free run at the
            # high end, reversed the other way round; sorted random layouts
            # give longer runs
            low = list(range(ell)) + [ell] * (k - ell)
            layouts = [low, low[::-1]]
            layouts += [sorted(random.Random(k * ell + i).choices(range(ell + 1), k=k))
                        for i in range(4)]
            for classes in layouts:
                # every set non-empty and a proper subset of the clique
                if set(classes) == set(range(ell + 1)):
                    chain = classed_chain(classes, ell)
                    clique = helpers.vertex_mask(range(0, 3 * k, 3))
                    records.append(helpers.perm_record(clique, chain))
    assert assert_runs_pick_as_the_scan(records, 4, draws=40) == len(records) > 60
