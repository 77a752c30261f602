"""Command-line interface.

Core claims:
    - count prints the decimal class size; --stats adds key=value diagnostics
      on stderr
    - sample emits valid, seed-deterministic DAG files
    - gen writes a parseable connected chordal graph and reports shape stats
    - oracle enforces its size guards with exit code 3
    - bench emits one well-formed CSV row per instance and survives timeouts
    - exit codes: 0 ok, 1 input error, 2 not chordal, 3 oracle guard
"""

import csv
import io
import math

import pytest

import helpers
from mectools import parse_graph
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


class TestCount:
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


class TestOracle:
    def test_rootpick_chain54(self, capsys, chain54):
        code, out, _ = run(capsys, "oracle", chain54, "--method", "rootpick")
        assert code == 0
        assert out == "54\n"

    def test_enumerate_path(self, capsys, path3):
        code, out, _ = run(capsys, "oracle", path3, "--method", "enumerate")
        assert code == 0
        assert out == "3\n"

    def test_enumerate_guard_exit_3(self, capsys, tmp_path):
        f = tmp_path / "big.graph"
        f.write_text(helpers.path_graph(30).as_partial_graph().serialize())
        code, _, err = run(capsys, "oracle", str(f), "--method", "enumerate")
        assert code == 3
        assert "limit" in err

    def test_rootpick_guard_exit_3(self, capsys, tmp_path):
        f = tmp_path / "big.graph"
        f.write_text(helpers.path_graph(30).as_partial_graph().serialize())
        code, _, _ = run(capsys, "oracle", str(f), "--method", "rootpick")
        assert code == 3

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
        code, out, _ = run(
            capsys, "bench", "--model", "interval", "--sizes", "64",
            "--timeout", "0.001", "--seed", "2",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][10] == "timeout"
        assert rows[1][8] == ""

    def test_unknown_model_exit_1(self, capsys):
        code, _, _ = run(capsys, "bench", "--model", "nosuch", "--sizes", "8")
        assert code == 1

    def test_bad_sizes_exit_1(self, capsys):
        code, _, _ = run(capsys, "bench", "--model", "peo", "--sizes", "abc")
        assert code == 1

    def test_nonpositive_k_policy_exit_1(self, capsys):
        code, out, err = run(
            capsys, "bench", "--model", "subtree", "--sizes", "8", "--k-policy", "0"
        )
        assert code == 1
        assert err == "error: bad --k-policy '0'\n"

    @pytest.mark.parametrize("sizes", ["0..4", "-2..8", "8,0"])
    def test_nonpositive_sizes_exit_1(self, capsys, sizes):
        code, out, err = run(capsys, "bench", "--model", "peo", f"--sizes={sizes}")
        assert code == 1 and out == ""
        assert err == f"error: bad --sizes '{sizes}'\n"


class TestUsage:
    def test_no_command_exit_1(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
