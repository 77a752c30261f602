"""Self-tests of the benchmark: its generator, its output checks and its trace.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import bench
import hostspeed
import run
from tracing import Tracer
from workloads import WORKLOADS, Workload, cpdag_many

from mectools import Dag, count_cpdag, count_root_picking, is_chordal, sampling
from mectools import undirected_components

ROOT = Path(__file__).resolve().parent.parent


def tiny_cpdag(seed: int):
    return cpdag_many(seed, comps=6, lo=4, hi=9, colliders=5, max_parents=3)


TINY = Workload("tiny", tiny_cpdag, 1, True, 1, 5, 5)


@pytest.mark.parametrize("seed", range(6))
def test_cpdag_many_is_an_essential_graph(seed):
    g = tiny_cpdag(seed)
    parents: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.directed_edges():
        parents[v].append(u)
    adjacent = bench.cpdag_adjacency(g)
    for v, ps in enumerate(parents):
        if not ps:
            continue
        assert not g.undirected[v], "a collider has undirected edges"
        assert not g.directed_out[v], "a collider has out-edges"
        for u in ps:
            assert any(w != u and w not in adjacent[u] for w in ps), "unprotected edge"
    comps = undirected_components(g)
    assert all(is_chordal(c) for c in comps)
    total = 1
    for comp in comps:
        expect = count_root_picking(comp)
        assert count_cpdag(comp.as_partial_graph()) == expect
        total *= expect
    assert count_cpdag(g) == total


def test_cpdag_many_is_seeded():
    assert tiny_cpdag(3).serialize() == tiny_cpdag(3).serialize()
    assert tiny_cpdag(3).serialize() != tiny_cpdag(4).serialize()


def reference_of(result: dict) -> dict:
    return {
        "descriptors": result["descriptors"],
        "count_digest": result["digests"]["count"],
        "stream_digest": result["digests"]["stream"],
    }


def tiny_pass(seed=2, **kwargs):
    return bench.run_workload(tiny_cpdag(seed).serialize(), TINY, seed, draws=6, **kwargs)


def test_clean_pass_is_correct_against_its_reference():
    first = tiny_pass()
    again = tiny_pass(reference=reference_of(first))
    assert first["failed"] == 0 and again["failed"] == 0
    assert again["correct"] and again["attempted"] == 1 + 1 + 6


def test_wrong_reference_digest_counts_as_failure():
    ref = reference_of(tiny_pass())
    ref["count_digest"] = "0" * 16
    res = tiny_pass(reference=ref)
    assert res["failed"] / res["attempted"] > 0 and not res["correct"]


def test_changed_workload_fails_the_run():
    ref = reference_of(tiny_pass())
    ref["descriptors"]["cliques"] += 1
    res = tiny_pass(reference=ref)
    assert res["failed"] == 0 and not res["correct"]


def test_corrupted_draw_counts_as_failure(monkeypatch):
    real = sampling.sample_cpdag
    calls = []

    def corrupt_first(*args, **kwargs):
        dag = real(*args, **kwargs)
        calls.append(1)
        if len(calls) > 1:
            return dag
        # drop one edge: still a DAG, but no longer a member of the class
        u = next(u for u in range(dag.n) if dag.out_edges[u])
        out = list(dag.out_edges)
        out[u] = out[u][1:]
        return Dag(dag.n, tuple(out))

    monkeypatch.setattr(sampling, "sample_cpdag", corrupt_first)
    res = tiny_pass()
    assert res["failed"] / res["attempted"] > 0
    assert any("draw 0" in r for r in res["reasons"])


def test_counts_above_4300_digits_are_digested():
    big = math.factorial(2000)
    assert len(bench.int_digest(big)) == 16
    assert bench.int_digest(big) != bench.int_digest(big + 1)


def test_tail_percentile_leaves_ten_draws_beyond():
    assert bench.tail_percentile(1000) == 99
    assert bench.tail_percentile(57) == 82
    for n in (30, 57, 200, 1000):
        p = bench.tail_percentile(n)
        assert n - math.ceil(p * n / 100) >= 10
        assert n - math.ceil((p + 1) * n / 100) < 10


def test_traced_pass_accounts_for_its_time():
    tracer = Tracer()
    res = tiny_pass(tracer=tracer)
    layers = res["layers"]
    assert res["failed"] == 0
    assert layers["counting.explored"]["value"] == res["descriptors"]["counting.explored"]
    assert (layers["subproblems.components_emitted"]["value"]
            == res["descriptors"]["subproblems.components_emitted"])
    assert layers["sampling.draw_perm.calls"]["value"] > 0
    assert 0 <= layers["trace.remainder_frac"]["value"] < 0.1
    # nothing stays patched after the pass
    assert sampling.sample_amo.__module__ == "mectools.sampling"


def test_missing_library_name_is_reported_missing():
    tracer = Tracer()
    res = tiny_pass(tracer=tracer)
    tracer.missing.add("chordal.clique_tree")
    layers = bench.layer_metrics(tracer, 1, res["plan_s"])
    assert layers["chordal.clique_tree.s"]["value"] is None
    assert layers["counting.explored"]["value"] is None
    assert layers["graphs.parse_graph.s"]["value"] is not None


def test_removed_layer_module_or_function_is_missing_not_fatal(monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("no_such_module", "f", "gone.module"),
        ("chordal", "no_such_function", "gone.function"),
    ))
    tracer = Tracer()
    res = tiny_pass(tracer=tracer)
    assert res["failed"] == 0
    assert tracer.missing == {"gone.module", "gone.function"}


def test_every_alias_of_a_layer_function_is_traced():
    from mectools import chordal, counting, oracle, subproblems

    tracer = Tracer()
    with tracer.patched():
        assert counting.components_after_clique is oracle.components_after_clique
        assert subproblems.components_after_clique is counting.components_after_clique
        assert chordal.refine_traversal is subproblems.refine_traversal
        assert chordal.refine_traversal.__name__ == "traced"
    assert chordal.refine_traversal.__name__ == "refine_traversal"


def test_speed_probe_scales_by_the_reference_loop_time():
    probe = hostspeed.SpeedProbe()
    ref = hostspeed.REF_LOOP_S
    for t, loop in ((1.0, ref), (1.01, ref / 2), (1.02, ref * 2), (3.0, ref)):
        probe.start.append(t)
        probe.loop.append(loop)
        probe.end.append(t + 0.001)
    assert probe.speed(1.0, 1.02) == pytest.approx((1 + 2 + 0.5) / 3)
    # one probe ran inside [2.9, 3.1]: its 1 ms is not the operation's
    assert probe.normalize(2.9, 3.1) == pytest.approx(0.199)


def test_timed_pass_reports_normalized_and_wall_times():
    res = bench.run_workload(tiny_cpdag(2).serialize(), TINY, 2, seconds=0.3)
    assert res["failed"] == 0 and res["host_speed"] > 0
    assert set(res["raw_metrics"]) | {"peak_rss_mb"} == set(res["metrics"])
    assert all(v > 0 for v in res["metrics"].values())


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.LAYER_UNITS


def test_reference_entries_are_well_formed():
    ref = json.loads((Path(bench.__file__).parent / "reference.json").read_text())
    assert set(ref) == set(WORKLOADS)
    for name, wl in WORKLOADS.items():
        assert str(wl.default_seed) in ref[name]
        for entry in ref[name].values():
            assert set(entry) == {"descriptors", "count_digest", "stream_digest"}

