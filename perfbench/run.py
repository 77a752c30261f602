"""mectools benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload count-dense --seed 91 --seconds 8 --trace 0

Builds the workload's input text from the seed, then hands it to a fresh
process that runs the library's public entry points on it and checks every
output.  ``--trace 0`` reports the end-to-end metrics of one timed pass, with times
at a fixed reference host speed (see ``hostspeed.py``) and the raw wall
times beside them.
``--trace 1`` runs the workload's fixed traced plan three times, untraced,
traced and untraced, each in its own process, and reports the per-layer
metrics of the traced pass with the tracing overhead.  Human-readable lines
go first; the last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import inspect
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "count_s": "s",
    "sample_ms_p50": "ms",
    "sample_ms_tail": "ms",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def worker(args: argparse.Namespace, text: str, deadline: float, *plan: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *plan]
    proc = subprocess.run(
        cmd, input=text, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0), check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + WORKER_TIMEOUT_S

    try:
        from workloads import WORKLOADS, build_text

        import mectools
    except ImportError as exc:
        print(f"error: cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(mectools.__file__).resolve().is_relative_to(SRC):
        print(f"error: mectools was imported from {mectools.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    text = build_text(wl.name, args.seed)
    sizes = ", ".join(f"{k}={v.default}" for k, v in
                      inspect.signature(wl.build).parameters.items() if k != "seed")
    print(f"input: {wl.build.__name__}(seed={args.seed}, {sizes}), {len(text)} bytes, "
          f"built in {time.perf_counter() - t0:.2f} s (not measured)")

    try:
        if args.trace:
            # untraced, traced, untraced: a linear drift in machine speed
            # cancels out of the overhead
            draws = str(wl.trace_draws)
            passes = [worker(args, text, deadline, "--draws", draws, *flag)
                      for flag in ((), ("--trace",), ())]
        else:
            passes = [worker(args, text, deadline, "--seconds", str(args.seconds))]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: measured process failed: {exc}", file=sys.stderr)
        return 1

    res = passes[-1]
    for name, value in res["descriptors"].items():
        print(f"descriptor {name} = {value}")
    print("descriptors and digests checked against reference.json"
          if res["referenced"] else "no reference for this seed: self-consistency checks only")
    for r in passes:
        for reason in r["reasons"]:
            print(f"check failed: {reason}")
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    correct = all(r["correct"] for r in passes)

    if args.trace:
        base = (passes[0]["plan_s"] + passes[2]["plan_s"]) / 2
        traced = passes[1]["plan_s"]
        metrics = passes[1]["layers"]
        metrics["trace.overhead_frac"]["value"] = traced / base - 1
        print(f"traced plan: 1 set-up, 1 count, {draws} draws; untraced {base:.3f} s "
              f"(mean of the passes before and after), traced {traced:.3f} s")
        explored = metrics["counting.explored"]["value"]
        emitted = metrics["subproblems.components_emitted"]["value"]
        print(f"counting.new_subgraph_ratio = explored {explored} / components_emitted {emitted}")
        print("partition.refine_traversal.adj_entries is computed: n + 2m of each input, summed")
        for name, m in metrics.items():
            if m["value"] is None:
                print(f"missing {name}: a wrapped library name no longer exists")
    else:
        metrics = {name: {"value": res["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        print(f"sample_ms_tail is p{res['tail_percentile']} of {res['draws']} draws")
        print(f"times are at the reference speed (hostspeed.py); this run's host ran at "
              f"{res['host_speed']:.3f} of it on average")
        for name, value in res["raw_metrics"].items():
            print(f"wall time, not normalized: {name} = {value}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"fail_frac = {failed / attempted} ({failed} failed / {attempted} attempted)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
