"""Check every drawn DAG against the reference orientation of its ordering.

    python tests/check_orientation.py [SEED ...]

Builds each workload of ``perfbench/workloads.py`` at seed 0 and at its
default seed (or at the seeds given), parses it, splits it and precounts
each undirected component, as ``mectools sample`` does; then
``gen_peo(4000, 1, 1)`` and ``gen_subtree(2000, 10, 1)``, whose one
component has more than 256 vertices, and a 257-vertex ``gen_interval``.
Each draw of ``sampling.sample_cpdag`` (20 per workload and seed, 5 per
generated graph) is compared with ``helpers.orientation_edges`` of the
graph by the global ordering the same draw makes: the components' orderings
drawn from a generator seeded alike, relabelled and concatenated.  Prints
one line per graph; exits 1 if any draw differs.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import helpers  # noqa: E402
from mectools import parse_graph, precount, sample_cpdag, undirected_components  # noqa: E402
from mectools.generators import gen_interval, gen_peo, gen_subtree  # noqa: E402
from mectools.sampling import _draw_order  # noqa: E402
from workloads import WORKLOADS, build_text  # noqa: E402


def check(g, draws: int, seed: int) -> int:
    """The draws of ``g`` whose DAG differs from the reference orientation."""
    comps = undirected_components(g)
    models = [precount(c) for c in comps]
    fast, slow = random.Random(seed), random.Random(seed)
    differ = 0
    for _ in range(draws):
        dag = sample_cpdag(g, models, fast, _components=comps)
        tau = [c.labels[v] for c, m in zip(comps, models) for v in _draw_order(m, slow)]
        differ += dag.edge_set() != helpers.orientation_edges(g, tau)
    return differ


def main(argv: list[str]) -> int:
    runs = [
        (f"{name} seed {seed}", parse_graph(build_text(name, seed)), 20, seed)
        for name, wl in WORKLOADS.items()
        for seed in [int(a) for a in argv] or [0, wl.default_seed]
    ]
    runs += [
        ("gen_peo(4000, 1, 1)", gen_peo(4000, 1, 1).as_partial_graph(), 5, 1),
        ("gen_subtree(2000, 10, 1)", gen_subtree(2000, 10, 1).as_partial_graph(), 5, 1),
        ("gen_interval(257, 1)", gen_interval(257, 1).as_partial_graph(), 5, 1),
    ]
    failed = False
    for label, g, draws, seed in runs:
        differ = check(g, draws, seed)
        print(f"{label}: {draws} draws, {differ} differ")
        failed |= differ > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
