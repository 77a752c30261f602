"""Check the parser against its line-by-line reference on the workload texts.

    python tests/check_parse.py [SEED ...]

Builds the text of each workload of ``perfbench/workloads.py`` at seed 0
and at its default seed (or at the seeds given), and four copies of each:
with CRLF line endings, with comments and blank lines between the lines,
with about one vertex name in ten respelled (``07``, ``+7``, ``0_7``,
non-ASCII digits), and with one edge line in the last tenth made faulty.
Each text is parsed by :func:`mectools.parse_graph` and by
``helpers.reference_parse_graph``; the two must give the same graph, or
raise the same error with the same message and line.  Prints one line per
text; exits 1 if any differs.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import helpers  # noqa: E402
from mectools import parse_graph  # noqa: E402
from workloads import WORKLOADS, build_text  # noqa: E402

NOTES = ["", "   ", "# a comment", "  # 1 2"]


def outcome(fn, text):
    """The graph a parse returns, or the type, message and line it raises."""
    try:
        return ("ok", fn(text))
    except ValueError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None))


def with_comments(lines: list[str], rng: random.Random) -> list[str]:
    out = []
    for line in lines:
        while rng.random() < 0.05:
            out.append(rng.choice(NOTES))
        out.append(line)
    return out


def respelled(lines: list[str], rng: random.Random) -> list[str]:
    return [" ".join(rng.choice(helpers.RESPELLINGS)(t) if rng.random() < 0.1 else t
                     for t in line.split())
            for line in lines]


KINDS = ["repeat", "reverse", "self-loop", "out of range", "malformed", "both kinds"]


def with_fault(lines: list[str], kind: str, rng: random.Random) -> tuple[list[str], str]:
    """``lines`` with one edge line in the last tenth replaced by a faulty
    one of ``kind``: an earlier line repeated or reversed, a self-loop, a
    vertex past n, a line that is not two integers, or a directed line
    repeating an undirected pair (a repeat where no line is directed)."""
    n, mu, md = map(int, lines[0].split())
    edges = len(lines) - 1
    first = 1 + edges - max(edges // 10, 1)  # the first line of the last tenth
    if kind == "both kinds" and md and mu:
        at = rng.randrange(max(first, 1 + mu), 1 + edges)
        earlier = lines[rng.randrange(1, 1 + mu)].split()
    else:
        kind = "repeat" if kind == "both kinds" else kind
        at = rng.randrange(first, 1 + edges)
        earlier = lines[rng.randrange(1, at)].split() if at > 1 else lines[at].split()
    u, v = lines[at].split()
    faulty = {
        "repeat": " ".join(earlier),
        "reverse": " ".join(reversed(earlier)),
        "both kinds": " ".join(earlier),
        "self-loop": f"{u} {u}",
        "out of range": f"{u} {n + 1}",
        "malformed": f"{u} {v}.0",
    }[kind]
    return lines[:at] + [faulty] + lines[at + 1:], f"{kind} at line {at + 1}"


def texts(name: str, seed: int, kind: str):
    """(label, text) of the workload text and its four copies."""
    text = build_text(name, seed)
    lines = text.splitlines()
    rng = random.Random(f"{name} {seed}")
    yield "as built", text
    yield "CRLF", "\r\n".join(lines) + "\r\n"
    yield "comments", "\n".join(with_comments(lines, rng)) + "\n"
    yield "respelled", "\n".join(respelled(lines, rng)) + "\n"
    faulty, where = with_fault(lines, kind, rng)
    yield f"fault: {where}", "\n".join(faulty) + "\n"


def describe(result) -> str:
    if result[0] == "ok":
        g = result[1]
        return f"ok, n={g.n} m_u={g.num_undirected} m_d={g.num_directed}"
    return f"{result[0]}: {result[1]}"


def main(argv: list[str]) -> int:
    runs = [(name, seed) for name, wl in WORKLOADS.items()
            for seed in [int(a) for a in argv] or [0, wl.default_seed]]
    failed = False
    for i, (name, seed) in enumerate(runs):  # the fault kinds taken in turn
        for label, text in texts(name, seed, KINDS[i % len(KINDS)]):
            got = outcome(parse_graph, text)
            want = outcome(helpers.reference_parse_graph, text)
            same = got == want
            print(f"{name} seed {seed}, {label}: {describe(got)}; "
                  f"{'matches' if same else 'DIFFERS from ' + describe(want)}")
            failed |= not same
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
