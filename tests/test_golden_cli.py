"""Golden CLI digests: byte-identical output and exit codes across changes.

Each case runs the CLI in-process and records the exit code and the sha256 of
stdout and stderr.  The expected values live in ``golden_cli.json``; refresh
them only on purpose, from the commit whose output is the reference:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import helpers  # noqa: E402
from mectools.cli import main  # noqa: E402
from mectools.graphs import parse_graph  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

# (model, n, k, seed) of the generated inputs
GENERATED = (
    ("subtree", 64, 4, 5),
    ("interval", 48, 2, 5),
    ("peo", 60, 3, 5),
    ("thicken", 50, 2, 5),
    ("subtree", 120, 6, 5),
)

DRAWS = (
    ("count", "--stats"),
    ("sample", "--samples", "20", "--seed", "9"),
    ("sample", "--samples", "0"),
)

FAULTY = {
    "not-chordal": "4 4 0\n1 2\n2 3\n3 4\n1 4\n",
    "malformed": "2 1\n1 2\n",
}

MISSING = "/nonexistent/golden.graph"


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def _gen_argv(model: str, n: int, k: int, seed: int) -> list[str]:
    return ["gen", "--model", model, "--n", str(n), "--k", str(k), "--seed", str(seed)]


def cases(workdir: str) -> dict[str, list[str]]:
    """Case id -> CLI arguments; input files are written into ``workdir``."""
    inputs = {}
    out: dict[str, list[str]] = {}
    for model, n, k, seed in GENERATED:
        name = f"{model}-{n}-{k}-{seed}"
        argv = _gen_argv(model, n, k, seed)
        out[f"gen {name}"] = argv
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        inputs[name] = buf.getvalue()
    inputs["cpdag-12-components"] = helpers.many_component_cpdag(3).serialize()
    inputs.update(FAULTY)
    for name, text in inputs.items():
        path = os.path.join(workdir, f"{name}.graph")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in DRAWS:
            out[f"{' '.join(argv)} {name}"] = [argv[0], path, *argv[1:]]
    for name in FAULTY:
        out[f"oracle {name}"] = ["oracle", os.path.join(workdir, f"{name}.graph")]
    for command in ("count", "sample", "oracle"):
        out[f"{command} missing"] = [command, MISSING]
    return out


def compute() -> dict[str, dict]:
    with tempfile.TemporaryDirectory() as workdir:
        return {case: _run(argv) for case, argv in cases(workdir).items()}


def test_cli_output_matches_the_golden_digests():
    with open(GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)
    got = compute()
    assert sorted(got) == sorted(want)
    assert [case for case in want if got[case] != want[case]] == []


def test_every_golden_input_that_parses_is_a_cpdag(tmp_path):
    paths = {argv[1] for argv in cases(str(tmp_path)).values() if argv[0] == "count"}
    for path in paths - {MISSING, os.path.join(str(tmp_path), "malformed.graph")}:
        with open(path, encoding="utf-8") as fh:
            assert parse_graph(fh.read()).is_cpdag, path


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(compute(), fh, indent=1, sort_keys=True)
        fh.write("\n")
