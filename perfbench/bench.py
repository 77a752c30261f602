"""One pass of a workload: timed operations on the input text, then checks.

Load is closed-loop from a single client: one process, no threads, each
operation starting after the previous one returns.  The operations are the
library's public entry points, called the way ``mectools count`` and
``mectools sample`` call them.  Every output is checked after the timed
region; a failed check marks the operations it covers as failed.
"""

from __future__ import annotations

import hashlib
import math
import random
import resource
import statistics
import time
from contextlib import nullcontext
from typing import Sequence

import workloads  # also puts the library's sources on sys.path
from hostspeed import SpeedProbe
from mectools import counting, graphs, oracle, sampling
# the benchmark's own root calls; tracing rebinds only the library's names
from mectools.graphs import parse_graph, undirected_components
from tracing import Tracer

# first draws of a run: kept, checked, re-drawn from a fresh generator and hashed
STREAM_DRAWS = 3


def int_digest(x: int) -> str:
    """Digest of a big integer from its bytes; ``str()`` refuses > 4300 digits."""
    return hashlib.sha256(x.to_bytes((x.bit_length() + 7) // 8 or 1, "big")).hexdigest()[:16]


def dag_digest(dags: Sequence[graphs.Dag | None]) -> str:
    """Digest of a draw stream; a draw that raised (``None``) hashes as ``-``."""
    h = hashlib.sha256()
    for dag in dags:
        h.update(dag.serialize().encode() if dag is not None else b"-")
    return h.hexdigest()[:16]


def tail_percentile(n: int) -> int:
    """Highest whole percentile (nearest rank) that leaves >= 10 of n beyond it."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 0


def nearest_rank(sorted_values: Sequence[float], p: int) -> float:
    return sorted_values[max(math.ceil(p * len(sorted_values) / 100), 1) - 1]


def cpdag_adjacency(g: graphs.PartialGraph) -> list[set[int]]:
    adj = [set(a) for a in g.undirected]
    for u, v in g.directed_edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_acyclic(dag: graphs.Dag) -> bool:
    indeg = [0] * dag.n
    for _, v in dag.edges():
        indeg[v] += 1
    queue = [u for u in range(dag.n) if indeg[u] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in dag.out_edges[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen == dag.n


def draw_faults(dag: graphs.Dag, g: graphs.PartialGraph, adj, vs) -> list[str]:
    """Reasons the draw is not a member of the class of ``g`` (empty if it is)."""
    faults = []
    skeleton = {(u, v) for u in range(g.n) for v in adj[u] if u < v}
    if dag.skeleton() != skeleton:
        faults.append("skeleton differs from the CPDAG's")
    edges = dag.edge_set()
    if any(e not in edges for e in g.directed_edges()):
        faults.append("a directed edge of the CPDAG was not kept")
    if not is_acyclic(dag):
        faults.append("draw has a directed cycle")
    elif oracle.v_structures(dag, adj) != vs:
        faults.append("v-structures differ from the CPDAG's")
    return faults


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, ops: int, reason: str) -> None:
        self.failed += ops
        self.reasons.append(reason)


def components_emitted(models) -> int:
    """Components emitted over all clique nodes, read from the sampler models."""
    return sum(len(r.child_keys) for m in models for e in m.entries.values() for r in e.records)


def timing_metrics(setups, count_ivs, draw_ivs, loop_ivs, seconds) -> dict[str, float]:
    """End-to-end times of a pass from its ``(start, end)`` intervals.

    ``seconds`` maps an interval to the time it stands for.  ``setups`` holds
    one list of intervals per round.
    """
    ordered = sorted(seconds(*iv) for iv in draw_ivs)
    return {
        "setup_s": statistics.median(sum(seconds(*iv) for iv in r) for r in setups),
        "count_s": statistics.median(seconds(*iv) for iv in count_ivs),
        "sample_ms_p50": statistics.median(ordered) * 1e3,
        "sample_ms_tail": nearest_rank(ordered, tail_percentile(len(ordered))) * 1e3,
        "samples_per_s": len(ordered) / sum(seconds(*iv) for iv in loop_ivs),
    }


def run_workload(
    text: str,
    wl: workloads.Workload,
    seed: int,
    seconds: float | None = None,
    draws: int | None = None,
    tracer: Tracer | None = None,
    reference: dict | None = None,
) -> dict:
    """Run one pass and check it.

    A timed pass runs ``wl.rounds`` rounds of one set-up, one count and a
    share of ``seconds`` of draws (at least ``min_draws`` in all), so every
    metric samples the whole run rather than one stretch of it.  It runs
    under a :class:`SpeedProbe` and reports its times at the probe's
    reference speed; the raw wall times come along as ``raw_metrics``.  A
    fixed pass (``draws`` given, as in traced runs) is one round with
    exactly ``draws`` draws, no probe, and wall times.
    """
    fixed = draws is not None
    rounds = 1 if fixed else wl.rounds
    tally = Tally()
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    probe = None if fixed else SpeedProbe()

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        with span(name):
            out = fn(*args)
        return out, (t0, time.perf_counter())

    setups: list[list[tuple[float, float]]] = []
    count_ivs: list[tuple[float, float]] = []
    draw_ivs: list[tuple[float, float]] = []
    loop_ivs: list[tuple[float, float]] = []
    counts: list[int] = []
    kept: list[graphs.Dag | None] = []
    g = comps = comp = models = model = dag = None
    drawn_from = None  # (graph, components, models) the draws use
    rng = random.Random(seed)
    # the library is patched and probed only while the timed plan runs, never for the checks
    with tracer.patched() if tracer is not None else nullcontext(), \
            probe.running() if probe is not None else nullcontext():
        plan_start = time.perf_counter()
        for _ in range(rounds):
            # free the previous round's graph, so one graph is parsed at a
            # time, as in one CLI run; count-dense keeps its first models
            g = comps = comp = dag = None
            if wl.setup_precount:
                drawn_from = models = model = None
            tally.attempted += 1
            g, iv_parse = timed("graphs.parse_graph", parse_graph, text)
            comps, iv_split = timed("graphs.undirected_components", undirected_components, g)
            setup = [iv_parse, iv_split]
            if wl.setup_precount:
                models = []
                for comp in comps:
                    model, iv = timed("sampling.precount", sampling.precount, comp)
                    models.append(model)
                    setup.append(iv)
                drawn_from = (g, comps, models)
            setups.append(setup)

            tally.attempted += 1
            count, iv = timed("counting.count_cpdag", counting.count_cpdag, g)
            counts.append(count)
            count_ivs.append(iv)

            if drawn_from is None:  # one untimed precount, kept for every round
                tally.attempted += 1
                models = [timed("sampling.precount", sampling.precount, c)[0] for c in comps]
                drawn_from = (g, comps, models)

            dg, dcomps, dmodels = drawn_from
            slice_start = time.perf_counter()
            deadline = slice_start + (seconds or 0.0) / rounds
            target = draws if fixed else len(draw_ivs) + -(-wl.min_draws // rounds)
            while len(draw_ivs) < target or (not fixed and time.perf_counter() < deadline):
                done = len(draw_ivs)
                tally.attempted += 1
                t0 = time.perf_counter()
                try:
                    with span("sampling.sample_cpdag"):
                        dag = sampling.sample_cpdag(dg, dmodels, rng, _components=dcomps)
                except Exception as exc:  # a raising draw is a failed operation; keep drawing
                    tally.fail(1, f"draw {done} raised {exc!r}")
                    dag = None
                draw_ivs.append((t0, time.perf_counter()))
                if done < STREAM_DRAWS:
                    kept.append(dag)
            loop_ivs.append((slice_start, time.perf_counter()))
            dg = dcomps = dmodels = None
        plan_s = time.perf_counter() - plan_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # --- checks, outside the timed region ---
    g, comps, models = drawn_from
    count_reps = len(counts)
    count = counts[0]
    if any(c != count for c in counts):
        tally.fail(count_reps, "repeated counts differ")
    recount = 1
    explored = cliques = 0
    for i, comp in enumerate(comps):
        stats = counting.count_with_stats(comp, seed=seed + i)  # randomized clique tree
        recount *= stats.count
        explored += stats.explored
        cliques += stats.max_cliques
    if recount != count:
        tally.fail(count_reps, "count differs from a recount with randomized clique trees")
    if math.prod(m.total for m in models) != count:
        tally.fail(count_reps, "count differs from the product of the sampler model totals")

    adj = cpdag_adjacency(g)
    vs = oracle.v_structures(graphs.Dag.from_edges(g.n, g.directed_edges()), adj)
    checked = [(i, d) for i, d in enumerate(kept) if d is not None]
    if dag is not None and len(draw_ivs) > len(kept):
        checked.append((len(draw_ivs) - 1, dag))
    for i, d in checked:
        for fault in draw_faults(d, g, adj, vs):
            tally.fail(1, f"draw {i}: {fault}")
    redraw_rng = random.Random(seed)
    redrawn = []
    for _ in kept:
        try:
            redrawn.append(sampling.sample_cpdag(g, models, redraw_rng, _components=comps))
        except Exception:  # the draw it repeats is compared, and counted, below
            redrawn.append(None)
    mismatched = sum(1 for a, b in zip(kept, redrawn) if a != b)
    if mismatched:
        tally.fail(mismatched, "re-drawing with the same seed gave other draws")

    # exact workload identity
    desc = {
        "n": g.n,
        "m_u": g.num_undirected,
        "m_d": g.num_directed,
        "components": len(comps),
        "cliques": cliques,
        "counting.explored": explored,
        "subproblems.components_emitted": components_emitted(models),
        "counting.count_bits": count.bit_length(),
    }
    digests = {"count": int_digest(count), "stream": dag_digest(kept)}
    descriptor_ok = True
    if reference is not None:
        if reference.get("count_digest") != digests["count"]:
            tally.fail(count_reps, "count digest differs from the reference")
        if reference.get("stream_digest") != digests["stream"]:
            tally.fail(len(kept), "draw stream digest differs from the reference")
        bad = {k: (v, reference["descriptors"].get(k)) for k, v in desc.items()
               if reference["descriptors"].get(k) != v}
        if bad:
            descriptor_ok = False
            tally.reasons.append(f"workload descriptors differ from the reference: {bad}")

    intervals = (setups, count_ivs, draw_ivs, loop_ivs)
    raw = timing_metrics(*intervals, lambda t0, t1: t1 - t0)
    metrics = timing_metrics(*intervals, probe.normalize) if probe is not None else dict(raw)
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "correct": tally.failed == 0 and descriptor_ok,
        "referenced": reference is not None,
        "descriptors": desc,
        "digests": digests,
        "draws": len(draw_ivs),
        "tail_percentile": tail_percentile(len(draw_ivs)),
        "plan_s": plan_s,
        "host_speed": probe.speed(plan_start, plan_start + plan_s) if probe is not None else None,
        "metrics": {**metrics, "peak_rss_mb": rss_mb},
        "raw_metrics": raw,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, count, plan_s)
    return result


COUNT = "counting.count_cpdag"
UAC = "graphs.undirected_components"
CT = "chordal.clique_tree"
CAC = "subproblems.components_after_clique"
REFINE = ("partition.refine_traversal",)
ORIENT = "graphs.orient_by_ordering"

# per-layer metric -> (unit, span name, summed field, root span it is taken
# under or None for the whole pass, traced spans that must exist to measure it)
SPAN_METRICS = {
    "graphs.parse_graph.s": ("s", "graphs.parse_graph", "s", None, ()),
    "graphs.undirected_components.s": ("s", "graphs.undirected_components", "s", None, (UAC,)),
    "graphs.undirected_components.self_s": (
        "s", "graphs.undirected_components", "self_s", None, (UAC, "chordal.is_chordal")),
    "graphs.orient_by_ordering.s": ("s", "graphs.orient_by_ordering", "s", None, (ORIENT,)),
    "graphs.orient_by_ordering.calls": (
        "count", "graphs.orient_by_ordering", "calls", None, (ORIENT,)),
    "chordal.is_chordal.s": ("s", "chordal.is_chordal", "s", None, ("chordal.is_chordal",)),
    "chordal.is_chordal.self_s": (
        "s", "chordal.is_chordal", "self_s", None, ("chordal.is_chordal", *REFINE)),
    "chordal.is_chordal.calls": (
        "count", "chordal.is_chordal", "calls", None, ("chordal.is_chordal",)),
    "chordal.clique_tree.s": ("s", "chordal.clique_tree", "s", None, (CT,)),
    "chordal.clique_tree.self_s": ("s", "chordal.clique_tree", "self_s", None, (CT, *REFINE)),
    "chordal.clique_tree.calls": ("count", "chordal.clique_tree", "calls", None, (CT,)),
    "partition.refine_traversal.s": ("s", "partition.refine_traversal", "s", None, REFINE),
    "partition.refine_traversal.calls": (
        "count", "partition.refine_traversal", "calls", None, REFINE),
    "partition.refine_traversal.adj_entries": (
        "count", "partition.refine_traversal", "note", None, REFINE),
    "subproblems.components_after_clique.self_s": (
        "s", "subproblems.components_after_clique", "self_s", None, (CAC, *REFINE)),
    "subproblems.components_after_clique.calls": (
        "count", "subproblems.components_after_clique", "calls", None, (CAC,)),
    "subproblems.components_emitted": (
        "count", "subproblems.components_after_clique", "note", COUNT, (CAC,)),
    "counting.self_s": ("s", COUNT, "self_s", None, (UAC, CT, CAC)),
    "counting.explored": ("count", "chordal.clique_tree", "calls", COUNT, (CT,)),
    "sampling.precount.self_s": ("s", "sampling.precount", "self_s", None, (CT, CAC)),
    "sampling.sample_cpdag.self_s": (
        "s", "sampling.sample_cpdag", "self_s", None, ("sampling.sample_amo",)),
    "sampling.sample_amo.self_s": ("s", "sampling.sample_amo", "self_s", None, (
        "sampling.sample_amo", "sampling.draw_perm", "sampling.draw_clique", ORIENT)),
    "sampling.draw_perm.s": ("s", "sampling.draw_perm", "s", None, ("sampling.draw_perm",)),
    "sampling.draw_perm.calls": (
        "count", "sampling.draw_perm", "calls", None, ("sampling.draw_perm",)),
    "sampling.draw_clique.s": ("s", "sampling.draw_clique", "s", None, ("sampling.draw_clique",)),
}

LAYER_UNITS = {
    **{name: spec[0] for name, spec in SPAN_METRICS.items()},
    "counting.new_subgraph_ratio": "ratio",
    "counting.count_bits": "bits",
    "trace.remainder_frac": "frac",
    "trace.overhead_frac": "frac",
}


def layer_metrics(tracer: Tracer, count: int, plan_s: float) -> dict:
    """Per-layer values of one traced pass; ``None`` where a name is missing.

    Times and calls are totals over the pass (its set-up, count, precount and
    draws).  ``counting.explored`` and ``subproblems.components_emitted`` are
    taken from the count alone.  ``trace.overhead_frac`` needs the untraced
    passes and is filled in by the caller.
    """
    summaries = {None: tracer.summary(), COUNT: tracer.summary(within=COUNT)}
    values = {}
    for name, (_, span, field, within, needs) in SPAN_METRICS.items():
        agg = summaries[within].get(span)
        missing = any(n in tracer.missing for n in needs)
        values[name] = None if missing else (agg[field] if agg else 0)
    explored = values["counting.explored"]
    emitted = values["subproblems.components_emitted"]
    values["counting.new_subgraph_ratio"] = (
        explored / emitted if explored is not None and emitted else None)
    values["counting.count_bits"] = count.bit_length()
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    values["trace.remainder_frac"] = (plan_s - roots) / plan_s
    values["trace.overhead_frac"] = None
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
