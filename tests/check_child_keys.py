"""Check the region counts of every clique record of the benchmark workloads.

    python tests/check_child_keys.py [SEED ...]

Builds each workload of ``perfbench/workloads.py`` at seed 0 and at its
default seed (or at the seeds given), parses it, explores every undirected
component without a seed, as a count does, and then again with a seed, as
the benchmark's recount does after its precount.  Per record it judges what
the clique tree's regions give a count: the length of the record's
``Components``, known before any ordering, must be the number of
components ``subproblems.components_by_traversal`` finds after its clique,
and the record's step of its entry's ``cumulative`` must be its ``phi``
times the totals of those components in the model's ``totals``.  A child
key with no entry must be complete, every two of its vertices adjacent, and
its total k!.  A record orders its child keys with that same traversal, so
the order is compared too, but only as a check that the record keeps what
it ran.  Prints one line per workload, seed and pass; exits 1 if any record
differs.
"""

from __future__ import annotations

import sys
from math import prod
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import helpers  # noqa: E402
from mectools import parse_graph, undirected_components  # noqa: E402
from mectools.counting import explore, factorial  # noqa: E402
from mectools.subproblems import components_by_traversal  # noqa: E402
from workloads import WORKLOADS, build_text  # noqa: E402


def check(name: str, seed: int) -> dict[str, list[int]]:
    """Per pass, unseeded and seeded, the records compared, the child keys
    with no entry among their components, and the records that differ, over
    one workload."""
    tally = {"unseeded": [0, 0, 0], "seeded": [0, 0, 0]}
    for i, comp in enumerate(undirected_components(parse_graph(build_text(name, seed)))):
        for run, explore_seed in (("unseeded", None), ("seeded", seed + i)):
            model = explore(comp, explore_seed)
            entries, totals = model.entries, model.totals
            for key, entry in entries.items():
                steps = [b - a for a, b in zip((0,) + entry.cumulative, entry.cumulative)]
                for r, step in zip(entry.records, steps):
                    # read before the record is ordered: the regions' count
                    length = len(r.child_keys)
                    want = components_by_traversal(comp, r.clique, key)
                    whole = [c for c in want if c not in entries]
                    tally[run][0] += 1
                    tally[run][1] += len(whole)
                    tally[run][2] += (
                        tuple(r.child_keys) != tuple(want)
                        or length != len(want)
                        or step != prod((totals[c] for c in want), start=r.phi)
                        or not all(helpers.is_complete(comp, c)
                                   and totals[c] == factorial(c.bit_count()) for c in whole)
                    )
    return tally


def main(argv: list[str]) -> int:
    failed = False
    for name, wl in WORKLOADS.items():
        for seed in [int(a) for a in argv] or [0, wl.default_seed]:
            for run, (compared, whole, differ) in check(name, seed).items():
                print(f"{name} seed {seed} {run}: {compared} records "
                      f"({whole} child keys with no entry), {differ} differ")
                failed |= differ > 0 or compared == 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
