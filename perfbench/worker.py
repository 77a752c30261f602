"""Measured process: reads one workload's input text on stdin, runs one pass.

Started by ``run.py`` so that input generation stays out of this process's
peak RSS.  Prints the pass's result as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N (--seconds S | --draws D) [--trace]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import bench
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def reference_for(workload: str, seed: int) -> dict | None:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    plan = p.add_mutually_exclusive_group(required=True)
    plan.add_argument("--seconds", type=float)
    plan.add_argument("--draws", type=int)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    text = sys.stdin.read()
    tracer = Tracer() if args.trace else None
    result = bench.run_workload(
        text,
        WORKLOADS[args.workload],
        args.seed,
        seconds=args.seconds,
        draws=args.draws,
        tracer=tracer,
        reference=reference_for(args.workload, args.seed),
    )
    if tracer is not None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-{args.seed}.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
