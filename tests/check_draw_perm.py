"""Check the permutation pick of every chained clique record against the scan.

    python tests/check_draw_perm.py [SEED ...]

Builds each workload of ``perfbench/workloads.py`` at seed 0 and at its
default seed (or at the seeds given), parses it and explores every
undirected component without a seed, as ``precount`` does; then
``gen_interval(2000, 1)``, whose cliques reach about a thousand vertices.
Every record with a non-empty chain is drawn twice by
``sampling.draw_perm``, which keeps the record's listing on the first draw
and reads it on the second, and twice by ``helpers.scan_draw_perm``, the
former pick that scans every remaining vertex, from generators seeded alike.
A record differs unless both draws give the same permutations and leave the
generators in the same state.  Prints one line per workload and seed; exits
1 if any record differs.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import helpers  # noqa: E402
from mectools import parse_graph, undirected_components  # noqa: E402
from mectools.counting import explore  # noqa: E402
from mectools.generators import gen_interval  # noqa: E402
from mectools.sampling import draw_perm  # noqa: E402
from workloads import WORKLOADS, build_text  # noqa: E402


def check(comps, seed: int) -> tuple[int, int]:
    """The chained records compared and the records that differ, over the
    models of ``comps``."""
    seeds = random.Random(seed)
    compared = differ = 0
    for comp in comps:
        for entry in explore(comp).entries.values():
            for r in entry.records:
                if not r.chain:
                    continue
                s = seeds.getrandbits(32)
                fast, slow = random.Random(s), random.Random(s)
                got = [draw_perm(r, fast) for _ in range(2)]
                want = [helpers.scan_draw_perm(r.clique, r.chain, slow) for _ in range(2)]
                compared += 1
                differ += got != want or fast.getstate() != slow.getstate()
    return compared, differ


def main(argv: list[str]) -> int:
    runs = [
        (f"{name} seed {seed}", undirected_components(parse_graph(build_text(name, seed))), seed)
        for name, wl in WORKLOADS.items()
        for seed in [int(a) for a in argv] or [0, wl.default_seed]
    ]
    runs.append(("gen_interval(2000, 1)", [gen_interval(2000, 1)], 1))
    failed = False
    for label, comps, seed in runs:
        compared, differ = check(comps, seed)
        print(f"{label}: {compared} chained records, {differ} differ")
        failed |= differ > 0 or compared == 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
