"""Command-line interface.

Core claims:
    - count prints the decimal class size; --stats adds key=value diagnostics
      on stderr; the README's format example is a CPDAG whose class size
      matches a brute-force enumeration, and the README's library example
      runs as written on it
    - sample emits valid, seed-deterministic DAG files
    - gen writes a parseable connected chordal graph and reports shape stats
    - oracle enforces its size guards with exit code 3
    - bench emits one well-formed CSV row per instance and survives timeouts,
      on any thread, leaving the caller's interval timer and SIGALRM handler
      alone; it counts the generated component as it is, with no split, and
      reads its clique count off the sweep the graph's check kept
    - exit codes: 0 ok, 1 input error (an input too large to hold and a
      generator that gives up included), 2 not chordal, 3 oracle guard,
      4 not a CPDAG (not a chain graph, an induced a -> b - c, or a directed
      edge not strongly protected), reported after chordality and in that
      order
    - oracle, like count, prints counts beyond the int-to-str digit limit,
      and neither changes that process-wide limit
    - an option out of range and an oracle size guard each give their exit
      code, one exact error line on stderr and nothing on stdout; the options
      are checked in a fixed order, before any input is read
"""

import csv
import io
import itertools
import math
import random
import signal
import sys
import threading
from pathlib import Path

import pytest

import helpers
from mectools import PartialGraph, parse_graph, precount, sample_cpdag, undirected_components
from mectools import cli, generators, graphs, oracle
from mectools.chordal import clique_tree
from mectools.counting import explore
from mectools.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def chain54(tmp_path):
    path = tmp_path / "chain54.graph"
    path.write_text(helpers.three_clique_chain().as_partial_graph().serialize())
    return str(path)


@pytest.fixture
def path3(tmp_path):
    path = tmp_path / "path3.graph"
    path.write_text(helpers.path_graph(3).as_partial_graph().serialize())
    return str(path)


@pytest.fixture
def square(tmp_path):
    path = tmp_path / "square.graph"
    path.write_text("4 4 0\n1 2\n2 3\n3 4\n1 4\n")
    return str(path)


@pytest.mark.parametrize("command", ["count", "sample", "oracle"])
def test_input_too_large_to_hold_exit_1(capsys, monkeypatch, tmp_path, command):
    # a header of 10^12 vertices makes the parser's rows exceed memory; the
    # parser is replaced by one that raises as it would, allocating nothing
    def parse(text):
        raise MemoryError

    monkeypatch.setattr(cli, "parse_graph", parse)
    path = tmp_path / "huge.graph"
    path.write_text("1000000000000 0 0\n")
    code, out, err = run(capsys, command, str(path))
    assert code == 1 and out == ""
    assert err == "error: out of memory\n"


@pytest.mark.parametrize("command", ["count", "sample", "oracle"])
def test_file_not_in_utf8_exit_1(capsys, tmp_path, command):
    f = tmp_path / "bytes.graph"
    f.write_bytes(b"\xff\xfe 1 0\n")
    code, out, err = run(capsys, command, str(f))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["count", "sample", "oracle"])
@pytest.mark.parametrize(
    "text",
    [
        "3 0 3\n1 2\n2 3\n3 1\n",  # directed 3-cycle
        "3 2 1\n1 2\n2 3\n1 3\n",  # 1 - 2 - 3 with 1 -> 3
    ],
    ids=["directed-cycle", "directed-edge-in-component"],
)
def test_not_a_chain_graph_exit_4(capsys, tmp_path, command, text):
    f = tmp_path / "cycle.graph"
    f.write_text(text)
    code, out, err = run(capsys, command, str(f))
    assert code == 4 and out == ""
    assert err.startswith("error: not a CPDAG") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["count", "sample", "oracle"])
def test_not_chordal_is_reported_before_not_a_chain_graph(capsys, tmp_path, command):
    # a 4-cycle component, and a directed 3-cycle on three other vertices
    f = tmp_path / "both.graph"
    f.write_text("7 4 3\n1 2\n2 3\n3 4\n1 4\n5 6\n6 7\n7 5\n")
    code, out, err = run(capsys, command, str(f))
    assert code == 2 and out == ""
    assert "chordal" in err


def test_chain_graph_with_an_arrow_into_a_line_is_not_counted(capsys, tmp_path):
    # 1 -> 2 - 3 is a chain graph, but no CPDAG has an induced a -> b - c
    f = tmp_path / "chain.graph"
    f.write_text("3 1 1\n2 3\n1 2\n")
    assert run(capsys, "count", str(f)) == (
        4, "", "error: not a CPDAG: an induced a -> b - c occurs\n"
    )


@pytest.mark.parametrize("command", ["count", "sample", "oracle"])
@pytest.mark.parametrize(
    "text",
    [
        "3 1 1\n2 3\n1 2\n",  # 1 -> 2 - 3
        "4 2 1\n1 2\n2 3\n4 3\n",  # the path 1 - 2 - 3 and 4 -> 3
    ],
    ids=["arrow-into-edge", "arrow-into-path"],
)
def test_induced_arrow_into_a_line_exit_4(capsys, tmp_path, command, text):
    f = tmp_path / "flag.graph"
    f.write_text(text)
    code, out, err = run(capsys, command, str(f))
    assert (code, out) == (4, "")
    assert err == "error: not a CPDAG: an induced a -> b - c occurs\n"


@pytest.mark.parametrize("command", ["count", "sample", "oracle"])
@pytest.mark.parametrize(
    "text",
    [
        "2 0 1\n1 2\n",  # the class of 1 -> 2 has 2 members
        "3 0 2\n1 2\n2 3\n",  # the class of 1 -> 2 -> 3 has 3
    ],
    ids=["one-arrow", "chain"],
)
def test_arrow_not_strongly_protected_exit_4(capsys, tmp_path, command, text):
    f = tmp_path / "arrow.graph"
    f.write_text(text)
    assert run(capsys, command, str(f)) == (
        4, "", "error: not a CPDAG: a directed edge is not strongly protected\n"
    )


@pytest.mark.parametrize("command", ["count", "sample", "oracle"])
def test_faults_are_reported_in_order(capsys, tmp_path, command):
    # a directed 3-cycle on 1, 2, 3 and 4 -> 5 - 6: not a chain graph first
    f = tmp_path / "both.graph"
    f.write_text("6 1 4\n5 6\n1 2\n2 3\n3 1\n4 5\n")
    code, out, err = run(capsys, command, str(f))
    assert (code, out) == (4, "")
    assert "partially directed cycle" in err
    # with a 4-cycle component added, not chordal comes before both
    f.write_text("10 5 4\n5 6\n7 8\n8 9\n9 10\n7 10\n1 2\n2 3\n3 1\n4 5\n")
    code, out, err = run(capsys, command, str(f))
    assert (code, out) == (2, "")
    assert "chordal" in err


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (["gen", "--model", "peo", "--n", "0"], 1, "--n must be positive"),
        (["gen", "--model", "peo", "--n", "0", "--k", "0"], 1, "--n must be positive"),
        (["sample", "{missing}", "--samples", "-2"], 1, "--samples must be nonnegative"),
        (["bench", "--model", "nosuch", "--sizes", "8"], 1, "unknown model 'nosuch'"),
        (["bench", "--model", "nosuch", "--sizes", "abc"], 1, "unknown model 'nosuch'"),
        (["bench", "--model", "peo", "--sizes", "8", "--reps", "0", "--timeout", "0",
          "--k-policy", "x"], 1, "--reps must be positive"),
        (["oracle", "{path30}", "--method", "enumerate"], 3,
         "component with 29 edges exceeds the enumeration limit of 24"),
        (["oracle", "{path30}", "--method", "rootpick"], 3,
         "component with 30 vertices exceeds the root-picking limit of 25"),
    ],
    ids=["gen-n-zero", "gen-n-before-k", "sample-before-reading", "bench-unknown-model",
         "bench-model-before-sizes", "bench-reps-before-timeout", "oracle-enumerate-guard",
         "oracle-rootpick-guard"],
)
def test_option_fault_exit_code_and_bytes(capsys, tmp_path, argv, code, error):
    path30 = tmp_path / "path30.graph"
    path30.write_text(helpers.path_graph(30).as_partial_graph().serialize())
    files = {"path30": str(path30), "missing": str(tmp_path / "missing.graph")}
    argv = [arg.format(**files) for arg in argv]
    assert run(capsys, *argv) == (code, "", f"error: {error}\n")


def readme_block(heading: str) -> str:
    """The first code block under the README's ``## heading``, as written."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    # drop the opening fence line, with its language tag, then cut at the close
    return section.split("```", 1)[1].partition("\n")[2].split("```\n", 1)[0]


def test_readme_library_example_runs_as_written(monkeypatch, tmp_path):
    (tmp_path / "graph.txt").write_text(readme_block("Graph file format"))
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(readme_block("Library"), names)
    g, size, dag = names["g"], names["size"], names["dag"]
    assert size == 3
    pairs = helpers.undirected_pairs(g) + list(g.directed_edges())
    assert dag.skeleton() == frozenset(pairs)
    assert set(g.directed_edges()) <= dag.edge_set()
    # the collider 1 -> 5 <- 4, in 0-based vertices, and no other
    assert oracle.v_structures(dag) == {(0, 4, 3)}


def brute_force_class(g: PartialGraph) -> list[frozenset]:
    """Edge sets of the DAGs on ``g``'s skeleton whose v-structures are
    exactly those of ``g``'s directed edges, found by trying every
    orientation.  If ``g`` is a CPDAG, these are the members of its class
    (Verma & Pearl: same skeleton, same v-structures)."""
    pairs = helpers.undirected_pairs(g) + list(g.directed_edges())
    adjacent = {frozenset(p) for p in pairs}

    def v_structures(edges):
        return {
            (a, c, b)
            for (a, c), (b, d) in itertools.permutations(edges, 2)
            if c == d and a < b and frozenset((a, b)) not in adjacent
        }

    want = v_structures(list(g.directed_edges()))
    members = []
    for flips in itertools.product((False, True), repeat=len(pairs)):
        edges = [(v, u) if f else (u, v) for (u, v), f in zip(pairs, flips)]
        if helpers.kahn_acyclic(g.n, edges) and v_structures(edges) == want:
            members.append(frozenset(edges))
    return members


class TestCount:
    def test_readme_format_example_is_a_cpdag_of_its_class(self, capsys, tmp_path):
        text = readme_block("Graph file format")
        g = parse_graph(text)
        members = brute_force_class(g)
        # a CPDAG marks exactly the edges that point the same way in every
        # member: its directed edges are kept, its undirected ones vary
        for u, v in g.directed_edges():
            assert all((u, v) in m for m in members)
        for u, v in helpers.undirected_pairs(g):
            assert any((u, v) in m for m in members)
            assert any((v, u) in m for m in members)
        f = tmp_path / "example.graph"
        f.write_text(text)
        code, out, err = run(capsys, "count", str(f))
        assert code == 0 and err == ""
        assert out == f"{len(members)}\n" == "3\n"

    def test_former_readme_example_is_not_a_cpdag(self):
        # the path 1 - 2 - 3 with 4 -> 3: three of the four members of its
        # class point 3 -> 4, so a CPDAG would leave that edge undirected
        members = brute_force_class(parse_graph("4 2 1\n1 2\n2 3\n4 3\n"))
        assert len(members) == 4
        assert sum((2, 3) in m for m in members) == 3

    def test_chain54(self, capsys, chain54):
        code, out, _ = run(capsys, "count", chain54)
        assert code == 0
        assert out == "54\n"

    def test_k4(self, capsys, tmp_path):
        f = tmp_path / "k4.graph"
        f.write_text(helpers.complete_graph(4).as_partial_graph().serialize())
        code, out, _ = run(capsys, "count", str(f))
        assert code == 0
        assert out == "24\n"

    def test_not_chordal_exit_2(self, capsys, square):
        code, out, err = run(capsys, "count", square)
        assert code == 2
        assert out == ""
        assert "chordal" in err

    def test_parse_error_exit_1(self, capsys, tmp_path):
        f = tmp_path / "bad.graph"
        f.write_text("2 1\n1 2\n")
        code, _, err = run(capsys, "count", str(f))
        assert code == 1
        assert "error" in err

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(capsys, "count", "/nonexistent/x.graph")
        assert code == 1

    def test_count_beyond_the_int_to_str_digit_limit(self, capsys, tmp_path):
        # 260 disjoint K_20: (20!)^260 has 4785 digits
        k, copies = 20, 260
        lines = [f"{k * copies} {copies * k * (k - 1) // 2} 0"]
        for c in range(copies):
            base = c * k + 1
            lines += [f"{base + i} {base + j}" for i in range(k) for j in range(i + 1, k)]
        f = tmp_path / "k20s.graph"
        f.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "count", str(f))
        assert code == 0 and err == ""
        digits = out.strip()
        assert digits.isdigit() and len(digits) > 4300
        value = 0
        for i in range(0, len(digits), 1000):  # int() of the whole string is limited too
            chunk = digits[i : i + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == math.factorial(k) ** copies

    def test_stats_on_stderr(self, capsys, chain54):
        code, out, err = run(capsys, "count", chain54, "--stats")
        assert code == 0
        assert out == "54\n"
        fields = dict(line.split("=") for line in err.strip().splitlines())
        assert fields["explored"] == "5"
        assert fields["cliques"] == "3"
        assert float(fields["density"]) > 0


class TestSample:
    def test_samples_are_valid_orientations(self, capsys, path3):
        code, out, _ = run(capsys, "sample", path3, "--samples", "3", "--seed", "1")
        assert code == 0
        blocks = [b for b in out.split("\n\n") if b.strip()]
        assert len(blocks) == 3
        for block in blocks:
            dag_pg = parse_graph(block)
            assert dag_pg.num_undirected == 0
            assert dag_pg.num_directed == 2

    def test_deterministic_output(self, capsys, chain54):
        _, first, _ = run(capsys, "sample", chain54, "--samples", "5", "--seed", "7")
        _, second, _ = run(capsys, "sample", chain54, "--samples", "5", "--seed", "7")
        assert first == second

    def test_seed_changes_output(self, capsys, chain54):
        _, first, _ = run(capsys, "sample", chain54, "--samples", "5", "--seed", "7")
        _, second, _ = run(capsys, "sample", chain54, "--samples", "5", "--seed", "8")
        assert first != second

    def test_streamed_draws_equal_the_joined_draws(self, capsys, tmp_path):
        chain = list(helpers.three_clique_chain().edges())
        g = PartialGraph.from_edges(10, chain + [(6, 7), (7, 8)], [(6, 9), (8, 9)])
        path = tmp_path / "cpdag.graph"
        path.write_text(g.serialize())
        comps = undirected_components(g)
        models = [precount(c) for c in comps]
        rng = random.Random(9)
        joined = "\n".join(
            sample_cpdag(g, models, rng, _components=comps).serialize() for _ in range(20)
        )
        code, out, _ = run(capsys, "sample", str(path), "--samples", "20", "--seed", "9")
        assert code == 0
        assert out == joined

    def test_negative_samples_exit_1(self, capsys, chain54):
        code, out, err = run(capsys, "sample", chain54, "--samples", "-2")
        assert code == 1 and out == ""
        assert err == "error: --samples must be nonnegative\n"

    def test_not_chordal_exit_2(self, capsys, square):
        code, _, _ = run(capsys, "sample", square)
        assert code == 2

    def test_sampled_stream_is_uniform(self, capsys, chain54):
        # 10800 draws over the 54 equally likely orientations
        code, out, _ = run(
            capsys, "sample", chain54, "--samples", "10800", "--seed", "3"
        )
        assert code == 0
        counts: dict = {}
        for block in out.split("\n\n"):
            if not block.strip():
                continue
            key = frozenset(parse_graph(block).directed_edges())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 54
        mean = 10800 / 54
        chi2 = sum((c - mean) ** 2 / mean for c in counts.values())
        assert chi2 < 90.5734  # 0.999 quantile, 53 degrees of freedom


class TestGen:
    def test_interval_graph_validates(self, capsys, tmp_path):
        out_file = tmp_path / "g.graph"
        code, _, err = run(
            capsys, "gen", "--model", "interval", "--n", "32", "--seed", "7",
            "-o", str(out_file),
        )
        assert code == 0
        pg = parse_graph(out_file.read_text())
        assert pg.n == 32
        from mectools import undirected_components

        comps = undirected_components(pg)  # raises if not chordal
        assert len(comps) == 1
        assert "cliques=" in err

    def test_stdout_when_no_output_file(self, capsys):
        code, out, _ = run(capsys, "gen", "--model", "peo", "--n", "8", "--seed", "3")
        assert code == 0
        assert parse_graph(out).n == 8

    def test_thicken_k1_connected_chordal(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--model", "thicken", "--n", "16", "--k", "1", "--seed", "2"
        )
        assert code == 0
        pg = parse_graph(out)
        assert pg.num_undirected == 16  # tree plus one chord

    def test_nonpositive_k_exit_1(self, capsys):
        code, out, err = run(capsys, "gen", "--model", "subtree", "--n", "5", "--k", "0")
        assert code == 1 and out == ""
        assert err == "error: --k must be positive\n"

    def test_unknown_model_exit_1(self, capsys):
        code, _, _ = run(capsys, "gen", "--model", "nosuch", "--n", "8")
        assert code == 1

    def test_unwritable_output_exit_1(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "out.graph"
        code, out, err = run(capsys, "gen", "--model", "peo", "--n", "8", "-o", str(target))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_generator_that_gives_up_exit_1(self, capsys):
        # subtrees of one node each rarely make a connected graph on 50 vertices
        code, out, err = run(capsys, "gen", "--model", "subtree", "--n", "50", "--k", "1")
        assert code == 1 and out == ""
        assert err == "error: no connected subtree-intersection graph (n=50, k=1)\n"


class TestOracle:
    def test_rootpick_chain54(self, capsys, chain54):
        code, out, _ = run(capsys, "oracle", chain54, "--method", "rootpick")
        assert code == 0
        assert out == "54\n"

    def test_rootpick_subproblem_bound_exit_3(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(oracle, "ROOT_PICKING_SUBPROBLEMS", 16)
        f = tmp_path / "k5.graph"
        f.write_text(helpers.complete_graph(5).as_partial_graph().serialize())
        error = "error: component with 5 vertices needs more than 16 root-picking subproblems\n"
        assert run(capsys, "oracle", str(f)) == (3, "", error)

    def test_enumerate_path(self, capsys, path3):
        code, out, _ = run(capsys, "oracle", path3, "--method", "enumerate")
        assert code == 0
        assert out == "3\n"

    def test_prints_beyond_the_int_to_str_digit_limit(self, capsys, monkeypatch, tmp_path):
        # the digits come out without lifting the process-wide limit, which
        # another thread may rely on
        def set_limit(maxdigits):
            raise AssertionError("the int-to-str digit limit was changed")

        monkeypatch.setattr(sys, "set_int_max_str_digits", set_limit, raising=False)
        # 14300 disjoint edges: a class of 2^14300 DAGs, 4305 digits
        pairs = 14300
        lines = [f"{2 * pairs} {pairs} 0"] + [f"{2 * i + 1} {2 * i + 2}" for i in range(pairs)]
        f = tmp_path / "edges.graph"
        f.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "oracle", str(f))
        assert (code, err) == (0, "")
        assert len(out.strip()) == 4305 and out == run(capsys, "count", str(f))[1]

    def test_agrees_with_count(self, capsys, tmp_path):
        for i, g in enumerate(helpers.random_chordal_corpus(5, 2, 7, seed=139, max_edges=12)):
            f = tmp_path / f"g{i}.graph"
            f.write_text(g.as_partial_graph().serialize())
            _, count_out, _ = run(capsys, "count", str(f))
            _, enum_out, _ = run(capsys, "oracle", str(f), "--method", "enumerate")
            _, root_out, _ = run(capsys, "oracle", str(f), "--method", "rootpick")
            assert count_out == enum_out == root_out


class TestBench:
    HEADER = [
        "model", "n", "k", "rep", "seed", "edges", "cliques",
        "density", "count_digits", "time_ms", "status",
    ]

    def test_csv_shape(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--model", "peo", "--sizes", "8,16",
            "--k-policy", "2", "--reps", "2", "--seed", "5",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == self.HEADER
        assert len(rows) == 1 + 4
        for row in rows[1:]:
            assert row[0] == "peo"
            assert int(row[1]) in (8, 16)
            assert row[10] == "ok"
            assert int(row[8]) >= 1
            assert float(row[9]) >= 0

    def test_doubling_range_syntax(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--model", "subtree", "--sizes", "16..64",
            "--k-policy", "log", "--seed", "1",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [int(r[1]) for r in rows[1:]] == [16, 32, 64]

    def test_timeout_rows_not_fatal(self, capsys):
        # the root's clique tree and regions alone take several ms here
        code, out, _ = run(
            capsys, "bench", "--model", "peo", "--sizes", "1000", "--k-policy", "1",
            "--timeout", "0.001", "--seed", "2",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][10] == "timeout"
        assert rows[1][8] == ""

    @pytest.mark.parametrize("timeout", ["1e-6", "1e-5"])
    def test_alarm_at_either_end_of_a_count_is_a_timeout(self, capsys, timeout):
        # a deadline this short can pass before the first clique record is
        # checked, or not until the last one is done
        code, out, err = run(
            capsys, "bench", "--model", "subtree", "--sizes", "2,3",
            "--reps", "5", "--timeout", timeout,
        )
        assert code == 0 and err == ""
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == self.HEADER
        assert len(rows) == 1 + 10
        assert {row[10] for row in rows[1:]} <= {"ok", "timeout"}

    @pytest.mark.parametrize("timeout, status", [("60", "ok"), ("0.001", "timeout")])
    def test_bench_runs_off_the_main_thread(self, capsys, timeout, status):
        argv = [
            "bench", "--model", "peo", "--sizes", "1000", "--k-policy", "1",
            "--timeout", timeout, "--seed", "2",
        ]
        codes = []
        thread = threading.Thread(target=lambda: codes.append(main(argv)))
        thread.start()
        thread.join()
        assert codes == [0]
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [row[10] for row in rows[1:]] == [status]

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timers here")
    def test_a_callers_timer_and_handler_survive_bench(self, capsys):
        def handler(signum, frame):
            pass

        old = signal.signal(signal.SIGALRM, handler)
        try:
            signal.setitimer(signal.ITIMER_REAL, 600.0, 300.0)
            code, out, _ = run(
                capsys, "bench", "--model", "peo", "--sizes", "1000", "--k-policy", "1",
                "--timeout", "0.001", "--seed", "2",
            )
            remaining, interval = signal.getitimer(signal.ITIMER_REAL)
            assert signal.getsignal(signal.SIGALRM) is handler
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
        assert code == 0
        assert list(csv.reader(io.StringIO(out)))[1][10] == "timeout"
        assert 590.0 < remaining <= 600.0 and interval == 300.0

    def test_counts_the_generated_component_as_it_is(self, capsys, monkeypatch):
        # a generated graph is one checked component: bench neither views it
        # as a PartialGraph nor splits it, and gen_peo walks no component
        calls = []
        view, walk = graphs.Uccg.as_partial_graph, graphs._component_roots
        monkeypatch.setattr(graphs.Uccg, "as_partial_graph", lambda g: calls.append("view") or view(g))
        for module in (graphs, generators):
            monkeypatch.setattr(module, "_component_roots", lambda und: calls.append("walk") or walk(und))
        code, out, _ = run(
            capsys, "bench", "--model", "peo", "--sizes", "64,256", "--k-policy", "2",
            "--reps", "2", "--seed", "3",
        )
        assert code == 0 and calls == []
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 4
        for row in rows:
            g = generators.gen_peo(int(row[1]), 2, int(row[4]))
            assert row[10] == "ok"
            assert int(row[8]) == len(str(explore(g).total))

    @pytest.mark.parametrize("model", sorted(cli._GEN))
    def test_cliques_column_reads_the_kept_sweep(self, capsys, monkeypatch, model):
        # each instance is generated, and so checked, before bench sees it:
        # bench sweeps no whole graph again, and its cliques column is the
        # length of the graph's clique tree
        made = {}
        for n, seed in ((12, 7), (40, 8)):
            made[n, 3, seed] = cli._GEN[model](n, 3, seed)
        monkeypatch.setitem(cli._GEN, model, lambda n, k, seed: made[n, k, seed])
        sweeps = []
        sweep_of = graphs._cliques_of_sweep
        monkeypatch.setattr(
            graphs, "_cliques_of_sweep", lambda g, sweep: sweeps.append(g) or sweep_of(g, sweep)
        )
        code, out, _ = run(
            capsys, "bench", "--model", model, "--sizes", "12,40", "--k-policy", "3",
            "--seed", "7",
        )
        assert code == 0 and sweeps == []
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 2
        for row in rows:
            g = made[int(row[1]), 3, int(row[4])]
            assert int(row[5]) == g.m
            assert int(row[6]) == len(clique_tree(g).cliques)
            assert row[10] == "ok"

    def test_generator_that_gives_up_exit_1(self, capsys):
        code, out, err = run(
            capsys, "bench", "--model", "subtree", "--sizes", "50", "--k-policy", "1"
        )
        assert code == 1 and out == ""
        assert err == "error: no connected subtree-intersection graph (n=50, k=1)\n"

    def test_bad_sizes_exit_1(self, capsys):
        assert run(capsys, "bench", "--model", "peo", "--sizes", "abc") == (
            1, "", "error: bad --sizes 'abc'\n"
        )

    def test_nonpositive_k_policy_exit_1(self, capsys):
        for policy in ("0", "abc"):
            code, out, err = run(
                capsys, "bench", "--model", "subtree", "--sizes", "8", "--k-policy", policy
            )
            assert code == 1 and out == ""
            assert err == f"error: bad --k-policy '{policy}'\n"

    @pytest.mark.parametrize("sizes", ["0..4", "-2..8", "8,0", "", ",", "4..2"])
    def test_nonpositive_sizes_exit_1(self, capsys, sizes):
        code, out, err = run(capsys, "bench", "--model", "peo", f"--sizes={sizes}")
        assert code == 1 and out == ""
        assert err == f"error: bad --sizes '{sizes}'\n"

    @pytest.mark.parametrize(
        "option, error",
        [
            ("--timeout=0", "--timeout must be positive"),
            ("--timeout=-1", "--timeout must be positive"),
            ("--timeout=nan", "--timeout must be positive"),
            ("--timeout=inf", "--timeout must be at most 1e9 seconds"),
            ("--timeout=1e300", "--timeout must be at most 1e9 seconds"),
            ("--reps=0", "--reps must be positive"),
        ],
        ids=["timeout-zero", "timeout-negative", "timeout-nan", "timeout-inf",
             "timeout-1e300", "reps-zero"],
    )
    def test_nonpositive_timeout_or_reps_exit_1(self, capsys, option, error):
        code, out, err = run(capsys, "bench", "--model", "peo", "--sizes", "8", option)
        assert code == 1 and out == ""
        assert err == f"error: {error}\n"


class TestUsage:
    def test_no_command_exit_1(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["count"], "mectools count: error: the following arguments are required: file"),
            (["sample", "x", "--samples", "abc"],
             "mectools sample: error: argument --samples: invalid int value: 'abc'"),
            (["gen", "--model", "nope", "--n", "3"],
             "mectools gen: error: argument --model: invalid choice: 'nope'"),
        ],
        ids=["count-no-file", "sample-bad-int", "gen-bad-model"],
    )
    def test_usage_error_says_why(self, capsys, argv, error):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"usage: mectools {argv[0]} ")
        assert err.splitlines()[-1].startswith(error)

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
