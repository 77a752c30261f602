"""Regenerate reference.json: descriptors and digests per workload and seed.

    python3 perfbench/make_reference.py

Each entry comes from one untimed pass that must pass every self-consistency
check.  Runs compare against these entries, so a changed workload or a
changed count or draw stream fails them.  Regenerate only when a workload
is deliberately redefined.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import bench
from workloads import WORKLOADS, build_text

OUT = Path(__file__).resolve().parent / "reference.json"
# besides each workload's default seed
SEEDS = range(11)


def main() -> int:
    out: dict[str, dict[str, dict]] = {}
    for name, wl in WORKLOADS.items():
        out[name] = {}
        for seed in sorted({wl.default_seed, *SEEDS}):
            res = bench.run_workload(build_text(name, seed), wl, seed, draws=bench.STREAM_DRAWS)
            if not res["correct"]:
                print(f"{name} seed {seed}: {res['reasons']}", file=sys.stderr)
                return 1
            out[name][str(seed)] = {
                "descriptors": res["descriptors"],
                "count_digest": res["digests"]["count"],
                "stream_digest": res["digests"]["stream"],
            }
            print(f"{name} seed {seed}: {res['descriptors']}", flush=True)
    OUT.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
