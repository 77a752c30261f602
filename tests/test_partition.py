"""The bitset traversal engine against the list-based oracle.

Core claims:
    - LBFS visit orders are identical, with lowest-index ties and with
      seeded random ties
    - K-first traversals visit and record identically, so the subproblem
      step emits the same components in the same order
    - the counter's exploration plans, and so the sampler models, are
      identical with and without a seed, complete subgraphs included
    - components that are only looked up by key never build adjacency
"""

import random

import pytest

import helpers
from mectools import Uccg, clique_tree, components_after_clique, count_amos, lbfs, precount
from mectools import chordal, counting
from mectools._partition import adjacency_masks, mask_bits, refine_traversal, vertex_mask
from mectools.generators import _prufer_tree, gen_interval, gen_peo, gen_subtree


def random_tree(n: int, seed: int) -> Uccg:
    return Uccg.from_edges(range(n), _prufer_tree(n, random.Random(seed)))


def binary_tree(n: int) -> Uccg:
    return Uccg.from_edges(range(n), [((v - 1) // 2, v) for v in range(1, n)])


def star(n: int) -> Uccg:
    return Uccg.from_edges(range(n), [(0, v) for v in range(1, n)])


def corpus() -> list[Uccg]:
    graphs = helpers.random_chordal_corpus(36, 1, 28, seed=2012)
    graphs += [helpers.path_graph(n) for n in (1, 2, 3, 9)]
    graphs += [helpers.complete_graph(n) for n in (1, 2, 5, 12)]
    graphs += [random_tree(n, n) for n in (4, 15, 40)]
    graphs += [binary_tree(31), star(9), helpers.three_clique_chain()]
    graphs += [gen_interval(40, 5), gen_subtree(60, 4, 6), gen_peo(80, 3, 7)]
    return graphs


CORPUS = corpus()


def test_lbfs_orders_match_the_oracle():
    for g in CORPUS:
        assert list(lbfs(g).order) == helpers.list_lbfs_order(g)
        for seed in range(3):
            got = lbfs(g, seed=seed).order
            assert list(got) == helpers.list_lbfs_order(g, random.Random(seed))


def k_first_cliques(g: Uccg) -> list[tuple[int, ...]]:
    """Every maximal clique and separator of a clique tree, and one vertex."""
    t = clique_tree(g)
    out = set(t.cliques) | {s for s in t.separators if s}
    out.add((g.n // 2,))
    return sorted(out)


def test_k_first_records_match_the_oracle():
    for g in CORPUS:
        full = (1 << g.n) - 1
        for clique in k_first_cliques(g):
            kmask = vertex_mask(clique)
            for seed in (None, 0, 1):
                rng = random.Random(seed) if seed is not None else None
                order, records = refine_traversal(
                    g.adj, [kmask, full ^ kmask], rng=rng, skip_record=kmask
                )
                rng = random.Random(seed) if seed is not None else None
                want = helpers.list_k_first_records(g, clique, rng=rng)
                assert (order, [mask_bits(r) for r in records]) == want


def test_components_match_the_oracle_in_order():
    for g in CORPUS:
        for clique in k_first_cliques(g):
            got = components_after_clique(g, clique)
            want = helpers.list_components_after_clique(g, clique)
            assert [(h.labels, h.adj) for h in got] == [(h.labels, h.adj) for h in want]
            assert [h.adj_masks for h in got] == [adjacency_masks(h.adj) for h in want]


def test_exploration_plans_match_the_oracle():
    for g in CORPUS:
        for seed in (None, 4, 5):
            rng = random.Random(seed) if seed is not None else None
            plans = counting._explore(g, {}, rng).plans
            assert plans == helpers.list_engine_plans(g, seed)


def test_seeded_models_of_a_graph_with_complete_subgraphs():
    # interval graphs explore many single-clique subgraphs between others
    g = gen_interval(30, 11)
    for seed in (None, 0, 1, 2):
        model = precount(g, seed=seed)
        want = helpers.list_engine_plans(g, seed)
        got = {key: tuple(r.clique for r in e.records) for key, e in model.entries.items()}
        assert got == {key: tuple(p.clique for p in nodes) for key, nodes in want.items()}


def test_complete_graph_is_one_plan_node():
    g = helpers.complete_graph(7)
    (plan,) = counting._explore(g, {}, None).plans[g.key]
    assert (plan.phi, plan.clique, plan.chain, plan.children) == (5040, g.labels, (), ())
    assert count_amos(g) == 5040


def test_clique_tree_of_a_complete_graph_draws_like_its_sweep():
    for n in (1, 2, 3, 8):
        g = helpers.complete_graph(n)
        for seed in range(4):
            fast, swept = random.Random(seed), random.Random(seed)
            got = clique_tree(g, rng=fast)
            want = chordal._clique_tree_of_sweep(
                g, helpers.list_lbfs_order(g, swept), swept
            )
            assert got == want
            assert fast.random() == swept.random()


def test_memo_hits_never_build_adjacency(monkeypatch):
    emitted = []

    def spy(*args, **kwargs):
        comps = components_after_clique(*args, **kwargs)
        emitted.extend(comps)
        return comps

    monkeypatch.setattr(counting, "components_after_clique", spy)
    g = gen_interval(60, 3)
    plans = counting._explore(g, {}, None).plans
    built = [h for h in emitted if h._adj is not None or h._masks is not None]
    assert len(emitted) > 2 * len(plans)
    assert len(built) < len(plans)
    assert {h.key for h in built} <= set(plans)


def test_lazy_component_equals_an_eager_one():
    g = helpers.clique_chain_7()
    (comp, _) = components_after_clique(g, [0, 1, 2, 3])
    assert comp._adj is None and comp._is_complete()
    assert comp == Uccg((4, 5), [[1], [0]])
    assert hash(comp) == hash(Uccg((4, 5), [[1], [0]]))
    assert not helpers.path_graph(3)._is_complete()


@pytest.mark.parametrize(
    "blocks", [[0b011, 0b100, 0b001], [0b011], [0b1111]], ids=["overlap", "gap", "extra"]
)
def test_blocks_must_partition_the_vertices(blocks):
    g = helpers.path_graph(3)
    with pytest.raises(ValueError):
        refine_traversal(g.adj, blocks)
