"""Command-line front end: count, sample, gen, oracle, bench.

Exit codes: 0 success, 1 input/usage error, 2 input not chordal, 3 oracle
size guard, 4 input not a CPDAG.  Results go to stdout; diagnostics to
stderr.  The commands raise their faults, and ``main`` alone prints the
``error:`` line and picks the exit code.  ``bench`` times each count against
a deadline that the counter checks, so it runs on any thread and leaves
signal handlers and interval timers alone.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import math
import random
import sys
import time
from typing import Sequence

from . import counting, generators, oracle, sampling
from .chordal import NotChordalError
from .graphs import NotCpdagError, ParseError, _split, parse_graph

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CHORDAL = 2
EXIT_ORACLE_GUARD = 3
EXIT_NOT_CPDAG = 4

MAX_TIMEOUT_S = 1e9  # largest bench --timeout, in seconds


class _OptionError(ValueError):
    """An option value out of its range; exits 1."""


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise _OptionError(message)


def _read_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _decimal(x: int) -> str:
    """Exact decimal digits of ``x``; ``Decimal`` is not subject to the limit on
    int-to-str conversion (4300 digits by default), so no setting changes."""
    return str(decimal.Decimal(x))


def _density(n: int, edges: int) -> float:
    return edges / (n * (n - 1) / 2) if n > 1 else 0.0


def cmd_count(args) -> int:
    g = _read_graph(args.file)
    total = 1
    explored = 0
    cliques = 0
    for comp in _split(g):
        model = counting.explore(comp)
        total *= model.total
        explored += len(model.entries)
        cliques += len(model.entries[model.root_key].records)
        del model  # one model alive at a time
    print(_decimal(total))
    if args.stats:
        print(f"explored={explored}", file=sys.stderr)
        print(f"cliques={cliques}", file=sys.stderr)
        dens = _density(g.n, g.num_undirected + g.num_directed)
        print(f"density={dens:.6f}", file=sys.stderr)
    return EXIT_OK


def cmd_sample(args) -> int:
    _check(args.samples >= 0, "--samples must be nonnegative")
    g = _read_graph(args.file)
    models = [sampling.precount(c) for c in _split(g)]
    rng = random.Random(args.seed)
    # each draw is written as it is made, a blank line between two draws
    for i in range(args.samples):
        dag = sampling.sample_cpdag(g, models, rng)
        if i:
            sys.stdout.write("\n")
        sys.stdout.write(dag.serialize())
    return EXIT_OK


_GEN = {
    "subtree": lambda n, k, seed: generators.gen_subtree(n, k, seed),
    "interval": lambda n, k, seed: generators.gen_interval(n, seed),
    "peo": lambda n, k, seed: generators.gen_peo(n, k, seed),
    "thicken": lambda n, k, seed: generators.gen_thicken(n, k, seed),
}


def cmd_gen(args) -> int:
    _check(args.n >= 1, "--n must be positive")
    _check(args.k >= 1, "--k must be positive")
    g = _GEN[args.model](args.n, args.k, args.seed)
    text = g.as_partial_graph().serialize()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(
        f"n={g.n} edges={g.m} cliques={len(g._cliques[0])} "
        f"density={_density(g.n, g.m):.6f}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_oracle(args) -> int:
    g = _read_graph(args.file)
    total = 1
    for comp in _split(g):
        if args.method == "enumerate":
            total *= len(oracle.enumerate_amos(comp))
        else:
            total *= oracle.count_root_picking(comp)
    print(_decimal(total))
    return EXIT_OK


def _parse_sizes(text: str) -> list[int]:
    """Sizes of a comma list or a doubling range ``a..b``; there must be at
    least one, and all must be positive."""
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
    else:
        out = [int(part) for part in text.split(",") if part]
    if not out or any(n < 1 for n in out):
        raise ValueError("need at least one size, and all positive")
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


def _count_with_timeout(g, budget: float) -> tuple[float, int | None]:
    """Wall time of counting the component ``g``, and the count, or None
    once it ran past ``budget`` seconds."""
    start = time.monotonic()
    try:
        value = counting.explore(g, deadline=start + budget).total
    except TimeoutError:
        value = None
    return time.monotonic() - start, value


def cmd_bench(args) -> int:
    _check(args.model in _GEN, f"unknown model '{args.model}'")
    try:
        sizes = _parse_sizes(args.sizes)
    except ValueError:
        raise _OptionError(f"bad --sizes '{args.sizes}'") from None
    _check(args.reps >= 1, "--reps must be positive")
    _check(args.timeout > 0, "--timeout must be positive")
    _check(args.timeout <= MAX_TIMEOUT_S, "--timeout must be at most 1e9 seconds")
    try:
        ks = [_resolve_k(args.k_policy, n) for n in sizes]
    except ValueError:
        raise _OptionError(f"bad --k-policy '{args.k_policy}'") from None
    writer = csv.writer(sys.stdout)
    instance = 0
    for n, k in zip(sizes, ks):
        for rep in range(args.reps):
            seed = args.seed + instance
            g = _GEN[args.model](n, k, seed)
            if instance == 0:
                # only once an instance exists: a generator that gives up
                # on the first one leaves stdout empty
                writer.writerow(
                    [
                        "model", "n", "k", "rep", "seed", "edges", "cliques",
                        "density", "count_digits", "time_ms", "status",
                    ]
                )
            instance += 1
            # a generated graph is one checked component: counted as it is,
            # its cliques read off the sweep its check kept
            elapsed, value = _count_with_timeout(g, args.timeout)
            writer.writerow(
                [
                    args.model,
                    n,
                    "" if args.model == "interval" else k,
                    rep,
                    seed,
                    g.m,
                    len(g._cliques[0]),
                    f"{_density(g.n, g.m):.6f}",
                    "" if value is None else len(_decimal(value)),
                    f"{elapsed * 1000:.3f}",
                    "ok" if value is not None else "timeout",
                ]
            )
            sys.stdout.flush()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mectools", description=__doc__)
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
        # argparse prints a usage error and exits 2, which the interface
        # reserves for non-chordal inputs; --help exits 0
        return EXIT_INPUT if exc.code else EXIT_OK
    # the commands raise every fault, an option out of range and an input too
    # large to hold or to brute-force included; each maps to its code here
    try:
        return args.func(args)
    except (_OptionError, OSError, ParseError, UnicodeDecodeError, generators.GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT
    except NotChordalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CHORDAL
    except NotCpdagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CPDAG
    except oracle.TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_GUARD


if __name__ == "__main__":
    sys.exit(main())
