"""Seeded workload inputs for the benchmark, as graph-file text.

Each workload turns ``--seed`` into one CPDAG.  The program under test only
ever sees the serialized text; generation happens before any timing and in
another process than the measured one.

Every instance is a disjoint union of several random chordal components, so
that the cost of a run is a sum over many independent random pieces.  A
single large random component makes run-to-run figures swing by about 15%
between seeds; the sums here average most of that out.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from mectools.generators import gen_interval, gen_peo, gen_subtree  # noqa: E402
from mectools.graphs import PartialGraph, Uccg  # noqa: E402


def _seeds(rng: random.Random, k: int) -> list[int]:
    return [rng.randrange(2**31) for _ in range(k)]


def disjoint_union(
    parts: Sequence[Uccg],
    directed: Sequence[tuple[int, int]] = (),
    perm: Sequence[int] | None = None,
) -> PartialGraph:
    """Place ``parts`` side by side (part i after parts 0..i-1).

    ``directed`` holds edges between positions of that layout; ``perm`` maps
    each position to its final vertex id.
    """
    und = []
    base = 0
    for part in parts:
        und.extend((base + u, base + v) for u, v in part.edges())
        base += part.n
    if perm is None:
        perm = range(base)
    return PartialGraph.from_edges(
        base,
        [(perm[u], perm[v]) for u, v in und],
        [(perm[u], perm[v]) for u, v in directed],
    )


def count_dense(seed: int, comps: int = 8, n: int = 160) -> PartialGraph:
    """``comps`` random interval graphs on ``n`` vertices (density near 2/3)."""
    rng = random.Random(seed)
    return disjoint_union([gen_interval(n, s) for s in _seeds(rng, comps)])


def sample_sparse(seed: int, comps: int = 4, n: int = 256, k: int = 10) -> PartialGraph:
    """``comps`` random subtree-intersection graphs on ``n`` vertices."""
    rng = random.Random(seed)
    return disjoint_union([gen_subtree(n, k, s) for s in _seeds(rng, comps)])


def cpdag_many(
    seed: int,
    comps: int = 500,
    lo: int = 8,
    hi: int = 64,
    colliders: int = 300,
    max_parents: int = 4,
) -> PartialGraph:
    """A CPDAG with many chordal components joined by colliders.

    Components cycle through the subtree, peo and interval generators with
    sizes uniform in ``lo..hi``; interval components, whose density is near
    2/3, stop at ``hi // 2`` vertices.  Each collider is a vertex with no undirected
    edge and 2..``max_parents`` parents taken from distinct components, so
    every directed edge is part of a v-structure and the graph is an
    essential graph.  Vertex ids are shuffled.
    """
    rng = random.Random(seed)
    families: list[Callable[[int, int], Uccg]] = [
        lambda size, s: gen_subtree(size, 4, s),
        lambda size, s: gen_peo(size, 3, s),
        lambda size, s: gen_interval(size, s),
    ]
    parts = [
        families[i % 3](rng.randint(lo, hi // 2 if i % 3 == 2 else hi), rng.randrange(2**31))
        for i in range(comps)
    ]
    starts = []
    base = 0
    for part in parts:
        starts.append(base)
        base += part.n
    directed = []
    for c in range(colliders):
        head = base + c
        for p in rng.sample(range(comps), rng.randint(2, max_parents)):
            directed.append((starts[p] + rng.randrange(parts[p].n), head))
    parts += [Uccg([0], [[]])] * colliders
    perm = list(range(base + colliders))
    rng.shuffle(perm)
    return disjoint_union(parts, directed, perm)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how its input is built and how a run uses it.

    ``setup_precount``: the timed set-up includes ``precount`` of every
    component (everything ``mectools sample`` does before its first draw).
    ``rounds``: set-up, count and a share of the draws, repeated; medians
    are reported.  ``min_draws``: draws made even when ``--seconds`` runs
    out.  ``trace_draws``: draws in each pass of a traced run.
    """

    name: str
    build: Callable[[int], PartialGraph]
    default_seed: int
    setup_precount: bool
    rounds: int
    min_draws: int
    trace_draws: int


WORKLOADS = {
    w.name: w
    for w in (
        # why each was chosen: BENCHMARK.json and NOTES.md
        Workload("count-dense", count_dense, 91, False, 4, 60, 30),
        Workload("sample-sparse", sample_sparse, 90, True, 6, 200, 200),
        Workload("cpdag-many", cpdag_many, 92, True, 3, 45, 10),
    )
}


def build_text(name: str, seed: int) -> str:
    return WORKLOADS[name].build(seed).serialize()
