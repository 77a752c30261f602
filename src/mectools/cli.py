"""Command-line front end: count, sample, gen, oracle, bench.

Exit codes: 0 success, 1 input/usage error, 2 input not chordal, 3 oracle
size guard.  Results go to stdout; diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import csv
import math
import random
import signal
import sys
import time
from typing import Sequence

from . import counting, generators, oracle, sampling
from .chordal import clique_tree
from .graphs import NotChordalError, ParseError, parse_graph, undirected_components

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CHORDAL = 2
EXIT_ORACLE_GUARD = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the interface reserves 2 for
    # non-chordal inputs, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _read_graph(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _decimal(x: int) -> str:
    """Exact decimal digits of ``x``, also beyond the interpreter's default
    limit on int-to-str conversion (4300 digits)."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        return str(x)
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


def _density(n: int, edges: int) -> float:
    return edges / (n * (n - 1) / 2) if n > 1 else 0.0


def cmd_count(args) -> int:
    g = _read_graph(args.file)
    try:
        comps = undirected_components(g)
    except NotChordalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CHORDAL
    total = 1
    explored = 0
    cliques = 0
    for comp in comps:
        stats = counting.count_with_stats(comp)
        total *= stats.count
        explored += stats.explored
        cliques += stats.max_cliques
    print(_decimal(total))
    if args.stats:
        print(f"explored={explored}", file=sys.stderr)
        print(f"cliques={cliques}", file=sys.stderr)
        dens = _density(g.n, g.num_undirected + g.num_directed)
        print(f"density={dens:.6f}", file=sys.stderr)
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.samples < 0:
        print("error: --samples must be nonnegative", file=sys.stderr)
        return EXIT_INPUT
    g = _read_graph(args.file)
    try:
        comps = undirected_components(g)
        models = [sampling.precount(c) for c in comps]
    except NotChordalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CHORDAL
    rng = random.Random(args.seed)
    chunks = []
    for _ in range(args.samples):
        dag = sampling.sample_cpdag(g, models, rng, _components=comps)
        chunks.append(dag.serialize())
    sys.stdout.write("\n".join(chunks))
    return EXIT_OK


_GEN = {
    "subtree": lambda n, k, seed: generators.gen_subtree(n, k, seed),
    "interval": lambda n, k, seed: generators.gen_interval(n, seed),
    "peo": lambda n, k, seed: generators.gen_peo(n, k, seed),
    "thicken": lambda n, k, seed: generators.gen_thicken(n, k, seed),
}


def cmd_gen(args) -> int:
    if args.n < 1:
        print("error: --n must be positive", file=sys.stderr)
        return EXIT_INPUT
    if args.k < 1:
        print("error: --k must be positive", file=sys.stderr)
        return EXIT_INPUT
    g = _GEN[args.model](args.n, args.k, args.seed)
    text = g.as_partial_graph().serialize()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    t = clique_tree(g)
    print(
        f"n={g.n} edges={g.m} cliques={len(t.cliques)} "
        f"density={_density(g.n, g.m):.6f}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_oracle(args) -> int:
    g = _read_graph(args.file)
    try:
        comps = undirected_components(g)
    except NotChordalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CHORDAL
    total = 1
    for comp in comps:
        if args.method == "enumerate":
            if comp.m > 24:
                print(
                    f"error: component with {comp.m} edges exceeds the "
                    "enumeration limit of 24",
                    file=sys.stderr,
                )
                return EXIT_ORACLE_GUARD
            total *= len(oracle.enumerate_amos(comp))
        else:
            if comp.n > 25:
                print(
                    f"error: component with {comp.n} vertices exceeds the "
                    "root-picking limit of 25",
                    file=sys.stderr,
                )
                return EXIT_ORACLE_GUARD
            total *= oracle.count_root_picking(comp)
    print(total)
    return EXIT_OK


def _parse_sizes(text: str) -> list[int]:
    """Sizes of a comma list or a doubling range ``a..b``; all must be positive."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if lo < 1:
            raise ValueError("sizes must be positive")
        out = []
        n = lo
        while n <= hi:
            out.append(n)
            n *= 2
        return out
    out = [int(part) for part in text.split(",") if part]
    if any(n < 1 for n in out):
        raise ValueError("sizes must be positive")
    return out


def _resolve_k(policy: str, n: int) -> int:
    if policy == "log":
        return max(1, round(math.log2(n)))
    if policy == "2log":
        return max(1, 2 * round(math.log2(n)))
    if policy == "sqrt":
        return max(1, round(math.sqrt(n)))
    k = int(policy)
    if k < 1:
        raise ValueError("k must be positive")
    return k


class _Timeout(Exception):
    pass


def _count_with_timeout(g, budget: float) -> tuple[float, int | None]:
    """Wall time of count_cpdag under a real-time alarm; None count on timeout."""

    def handler(signum, frame):
        raise _Timeout

    old = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, budget)
    start = time.perf_counter()
    try:
        value = counting.count_cpdag(g)
        elapsed = time.perf_counter() - start
        return elapsed, value
    except _Timeout:
        return time.perf_counter() - start, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def cmd_bench(args) -> int:
    if args.model not in _GEN:
        print(f"error: unknown model '{args.model}'", file=sys.stderr)
        return EXIT_INPUT
    try:
        sizes = _parse_sizes(args.sizes)
    except ValueError:
        print(f"error: bad --sizes '{args.sizes}'", file=sys.stderr)
        return EXIT_INPUT
    writer = csv.writer(sys.stdout)
    writer.writerow(
        [
            "model", "n", "k", "rep", "seed", "edges", "cliques",
            "density", "count_digits", "time_ms", "status",
        ]
    )
    instance = 0
    for n in sizes:
        try:
            k = _resolve_k(args.k_policy, n)
        except ValueError:
            print(f"error: bad --k-policy '{args.k_policy}'", file=sys.stderr)
            return EXIT_INPUT
        for rep in range(args.reps):
            seed = args.seed + instance
            instance += 1
            g = _GEN[args.model](n, k, seed)
            t = clique_tree(g)
            pg = g.as_partial_graph()
            elapsed, value = _count_with_timeout(pg, args.timeout)
            writer.writerow(
                [
                    args.model,
                    n,
                    "" if args.model == "interval" else k,
                    rep,
                    seed,
                    g.m,
                    len(t.cliques),
                    f"{_density(g.n, g.m):.6f}",
                    "" if value is None else len(_decimal(value)),
                    f"{elapsed * 1000:.3f}",
                    "ok" if value is not None else "timeout",
                ]
            )
            sys.stdout.flush()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mectools", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count the DAGs of the equivalence class")
    p.add_argument("file")
    p.add_argument("--stats", action="store_true", help="exploration stats on stderr")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("sample", help="emit uniform DAGs from the class")
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("gen", help="generate a random connected chordal graph")
    p.add_argument("--model", required=True, choices=sorted(_GEN))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2, help="density parameter (ignored by interval)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("oracle", help="brute-force count for validation")
    p.add_argument("file")
    p.add_argument("--method", choices=["enumerate", "rootpick"], default="rootpick")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="timing harness, CSV on stdout")
    p.add_argument("--model", required=True)
    p.add_argument("--sizes", required=True, help="comma list or doubling range a..b")
    p.add_argument("--k-policy", default="log", help="log, 2log, sqrt, or an integer")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--timeout", type=float, default=60.0, help="seconds per instance")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
