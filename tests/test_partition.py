"""The bitset traversal engine and the chordal layer against the list-based
oracles.

Core claims:
    - LBFS visit orders are identical, with lowest-index ties and with
      seeded random ties
    - clique trees are identical in every field, their BFS order included,
      with and without a seed; a seeded tree does not read or keep the
      unseeded sweeps kept on its graph
    - K-first traversals visit and record identically, so the subproblem
      step emits the same components in the same order
    - the counter's exploration plans, and so the sampler models, are
      identical with and without a seed, complete subgraphs included, on
      the corpus and on hypothesis chordal graphs
    - a seed draws each subgraph's tree from a generator of its own, seeded
      from the seed and the subgraph's mask, so a seeded model is the same
      in every process
    - exploring builds no graph besides its root: subgraphs are masks, and
      a mask read through the root's neighborhoods is the induced subgraph
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import mectools
from mectools import Uccg, chordal, counting, precount
from mectools.chordal import clique_tree, lbfs
from mectools.subproblems import components_by_traversal
from mectools._partition import adjacency_masks, mask_bits, refine_traversal
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
        assert list(lbfs(g)) == helpers.list_lbfs_order(g)
        for seed in range(3):
            got = lbfs(g, rng=random.Random(seed))
            assert list(got) == helpers.list_lbfs_order(g, random.Random(seed))


def k_first_cliques(g: Uccg) -> list[tuple[int, ...]]:
    """Every maximal clique and separator of a clique tree, and one vertex."""
    t = clique_tree(g)
    out = set(t.cliques) | {s for s in t.separators if s}
    out.add(1 << g.n // 2)
    return [tuple(mask_bits(c)) for c in sorted(out)]


def test_k_first_records_match_the_oracle():
    for g in CORPUS:
        full = (1 << g.n) - 1
        for clique in k_first_cliques(g):
            kmask = helpers.vertex_mask(clique)
            for seed in (None, 0, 1):
                rng = random.Random(seed) if seed is not None else None
                order, records = refine_traversal(
                    g.adj, [kmask, full ^ kmask], rng=rng, skip_record=kmask, masks=g.adj_masks
                )
                rng = random.Random(seed) if seed is not None else None
                want = helpers.list_k_first_records(g, clique, rng=rng)
                assert (order, [mask_bits(r) for r in records]) == want


def test_components_match_the_oracle_in_order():
    for g in CORPUS:
        for clique in k_first_cliques(g):
            got = [
                helpers.induced_subgraph(g, helpers.labels_of(g, h))
                for h in components_by_traversal(g, helpers.vertex_mask(clique))
            ]
            want = helpers.list_components_after_clique(g, clique)
            assert [(h.labels, h.adj) for h in got] == [(h.labels, h.adj) for h in want]
            assert [h.adj_masks for h in got] == [adjacency_masks(h.adj) for h in want]


def records_of(model) -> dict:
    """The model's records with every vertex, vertex set and key in its
    label view."""
    label = model.root.labels.__getitem__

    def labels(key):
        return helpers.labels_of(model.root, key)

    return {
        labels(key): tuple(
            (
                r.phi,
                tuple(map(label, r.clique)),
                tuple(tuple(map(label, x)) for x in r.chain),
                tuple(map(labels, r.child_keys)),
            )
            for r in entry.records
        )
        for key, entry in model.entries.items()
    }


def test_exploration_plans_match_the_oracle():
    for g in CORPUS:
        for seed in (None, 4, 5):
            assert records_of(counting.explore(g, seed)) == helpers.list_engine_plans(g, seed)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(helpers.chordal_graphs(), st.one_of(st.none(), st.integers(0, 2**16)))
def test_exploration_plans_match_the_oracle_on_chordal_graphs(g, seed):
    assert records_of(counting.explore(g, seed)) == helpers.list_engine_plans(g, seed)


def test_seeded_models_of_a_graph_with_complete_subgraphs():
    # interval graphs explore many single-clique subgraphs between others
    g = gen_interval(30, 11)
    for seed in (None, 0, 1, 2):
        assert records_of(precount(g, seed=seed)) == helpers.list_engine_plans(g, seed)


def test_a_seeded_entry_holds_the_tree_of_its_own_generator():
    for g in (gen_interval(30, 11), gen_subtree(60, 4, 6), gen_peo(80, 3, 7)):
        for seed in (0, 5):
            for key, entry in counting.explore(g, seed).entries.items():
                t = clique_tree(g, random.Random(f"{seed} {key}"), key)
                want = [tuple(mask_bits(t.cliques[idx])) for idx in t.order]
                assert [r.clique for r in entry.records] == want


SEEDED_MODEL = """
from mectools import counting
from mectools.generators import gen_subtree
model = counting.explore(gen_subtree(60, 4, 6), 7)
print([(key, [(r.clique, r.chain, tuple(r.child_keys), r.phi) for r in entry.records])
       for key, entry in model.entries.items()])
"""


def test_a_seeded_model_is_the_same_in_every_process():
    src = str(Path(mectools.__file__).resolve().parent.parent)
    out = [
        subprocess.run(
            [sys.executable, "-c", SEEDED_MODEL],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hashseed},
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        for hashseed in ("1", "2")
    ]
    assert out[0] == out[1] and out[0].startswith("[(")


def test_complete_graph_is_one_plan_node():
    g = helpers.complete_graph(7)
    assert records_of(counting.explore(g))[g.labels] == ((5040, g.labels, (), ()),)
    assert precount(g).total == 5040


def drew_like_the_sweep(fast: random.Random, swept: random.Random, seed: int, tree) -> bool:
    """A tree of more than one clique draws from its generator what its
    sweep drew; a complete graph's one-clique tree draws nothing."""
    if len(tree.cliques) > 1:
        return fast.random() == swept.random()
    return fast.getstate() == random.Random(seed).getstate()


def test_clique_trees_match_the_oracle():
    for g in CORPUS:
        for seed in (None, 0, 1, 2, 3):
            fast = random.Random(seed) if seed is not None else None
            swept = random.Random(seed) if seed is not None else None
            want = helpers.list_clique_tree_of_sweep(
                g, helpers.list_lbfs_order(g, swept), swept
            )
            assert clique_tree(g, rng=fast) == want
            if seed is not None:
                assert drew_like_the_sweep(fast, swept, seed, want)
        # with the unseeded sweeps of every explored subgraph kept on g, a
        # seeded tree neither reads them nor keeps its own sweep
        precount(g)
        kept = dict(g._sweeps)
        fast, swept = random.Random(0), random.Random(0)
        want = helpers.list_clique_tree_of_sweep(g, helpers.list_lbfs_order(g, swept), swept)
        assert clique_tree(g, rng=fast) == want
        assert drew_like_the_sweep(fast, swept, 0, want)
        assert g._sweeps == kept


def test_clique_tree_of_a_complete_graph_matches_its_sweep_and_draws_nothing():
    for n in (1, 2, 3, 8):
        g = helpers.complete_graph(n)
        for seed in range(4):
            fast, swept = random.Random(seed), random.Random(seed)
            got = clique_tree(g, rng=fast)
            want = chordal._clique_tree_of_sweep(
                g, helpers.list_lbfs_order(g, swept), swept
            )
            assert got == want
            assert drew_like_the_sweep(fast, swept, seed, want)


def test_memo_hits_never_build_adjacency(monkeypatch):
    # a Uccg is built checked, through __post_init__, or by _unchecked, so
    # explore builds no graph besides its root: components are root masks
    filled = []
    real_check, real_unchecked = Uccg.__post_init__, Uccg._unchecked.__func__

    def check(self):
        filled.append(self)
        real_check(self)

    def unchecked(cls, *args):
        filled.append(args)
        return real_unchecked(cls, *args)

    g = gen_interval(60, 3)
    monkeypatch.setattr(Uccg, "__post_init__", check)
    monkeypatch.setattr(Uccg, "_unchecked", classmethod(unchecked))
    emitted = []
    real_step = counting.components_after_clique

    def step(*args):
        comps = real_step(*args)
        emitted.extend(comps)
        return comps

    monkeypatch.setattr(counting, "components_after_clique", step)
    model = counting.explore(g)
    assert filled == [] and model.root is g
    assert len(emitted) > 2 * len(model.entries)
    assert set(emitted) <= model.entries.keys()
    assert all(isinstance(h, int) for h in emitted)


def test_lazy_component_equals_an_eager_one():
    # a component is a mask over the root; read through the root's masks it
    # is the eagerly built induced subgraph, completeness included
    g = helpers.clique_chain_7()
    (comp, _) = components_by_traversal(g, 0b1111)
    assert helpers.labels_of(g, comp) == (4, 5)
    assert [g.adj_masks[v] & comp for v in mask_bits(comp)] == [1 << 5, 1 << 4]
    eager = helpers.induced_subgraph(g, (4, 5))
    assert eager == Uccg((4, 5), [[1], [0]])
    assert hash(eager) == hash(Uccg((4, 5), [[1], [0]]))
    assert clique_tree(g, None, comp).cliques == (comp,)
    path = helpers.path_graph(3)
    assert len(clique_tree(path, None, (1 << path.n) - 1).cliques) == 2


@pytest.mark.parametrize(
    "blocks", [[0b011, 0b100, 0b001], [0b011], [0b1111]], ids=["overlap", "gap", "extra"]
)
def test_blocks_must_partition_the_vertices(blocks):
    # the traversal trusts its blocks; the check every library-built block
    # sequence passes (see test_trusted_inputs) rejects these
    with pytest.raises(ValueError):
        helpers.check_blocks(0b111, blocks)
