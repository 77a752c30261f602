"""Check every clique record of the benchmark workloads against the traversal.

    python tests/check_child_keys.py [SEED ...]

Builds each workload of ``perfbench/workloads.py`` at seed 0 and at its
default seed (or at the seeds given), parses it, explores every undirected
component without a seed, as a count does, and compares each record's
``child_keys`` with what ``subproblems.components_by_traversal`` finds after
its clique, in order.  Prints one line per workload and seed; exits 1 if any
record differs.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from mectools import parse_graph, undirected_components  # noqa: E402
from mectools.counting import explore  # noqa: E402
from mectools.subproblems import components_by_traversal  # noqa: E402
from workloads import WORKLOADS, build_text  # noqa: E402


def check(name: str, seed: int) -> tuple[int, int]:
    """Records compared and records that differ, over one workload."""
    compared = differ = 0
    for comp in undirected_components(parse_graph(build_text(name, seed))):
        for key, entry in explore(comp).entries.items():
            for r in entry.records:
                clique = sum(1 << v for v in r.clique)
                compared += 1
                differ += r.child_keys != tuple(components_by_traversal(comp, clique, key))
    return compared, differ


def main(argv: list[str]) -> int:
    failed = False
    for name, wl in WORKLOADS.items():
        for seed in [int(a) for a in argv] or [0, wl.default_seed]:
            compared, differ = check(name, seed)
            print(f"{name} seed {seed}: {compared} records, {differ} differ")
            failed |= differ > 0 or compared == 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
