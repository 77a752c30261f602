"""The input path against its line-by-line reference in ``helpers``.

Core claims:
    - every text, valid or not, parses to the reference's graph, or fails
      with the reference's error, message and line; a parsed graph passes
      the PartialGraph constructor's check, which the parser skips
    - a vertex named in several spellings (07, +7, non-ASCII digits) is one
      vertex, and all rows share one int object per vertex, also past the
      small ints Python caches
    - parsing a file of 66k edge lines peaks below 115 traced bytes a line
    - the PartialGraph constructor accepts exactly what the pair-by-pair
      check accepts, and otherwise raises its message
    - undirected_components returns the reference's components, or raises
      its error, message and labels; rows out of order never reach it, the
      constructor rejects them
"""

import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from mectools import NotChordalError, ParseError, PartialGraph, parse_graph, undirected_components
from mectools.generators import gen_interval

PROPERTY = settings(max_examples=400, deadline=None, derandomize=True, database=None)

NEWLINES = ["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x85", " "]
SPACES = [" ", " ", "\t", "  ", "　"]
JUNK = ["a", "1.5", "+2", "-1", "0x1", "٣", "1_0", "#", "#3", "007", "99999999999999999999"]


def outcome(fn, *args):
    """What a call returns, or the type, message and line of what it raises."""
    try:
        return ("ok", fn(*args))
    except ValueError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "labels", None))


@st.composite
def line_of(draw, tokens):
    sep = draw(st.sampled_from(SPACES))
    lead = draw(st.sampled_from(["", "", " ", "\t"]))
    tail = draw(st.sampled_from(["", "", " ", "\t "]))
    return lead + sep.join(tokens) + tail


@st.composite
def graph_texts(draw, wide=False):
    """Graph files, mostly well formed, with comments, blank lines, mixed
    line endings and one or two planted faults.  ``wide`` files name a few
    vertices past 256 in each of several spellings."""
    if wide:
        n = draw(st.integers(257, 400))
        vertex = st.sampled_from(draw(st.lists(st.integers(1, n), min_size=2, max_size=7,
                                               unique=True)))
    else:
        n = draw(st.integers(0, 6))
        vertex = st.integers(1, max(n, 1))
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]),
                          max_size=9, unique_by=lambda p: (min(p), max(p))))
    lines = [[str(u), str(v)] for u, v in pairs]
    for _ in range(draw(st.integers(0, 2))):  # planted faults
        fault = draw(st.sampled_from(["dup", "flip", "loop", "range", "junk", "short", "long"]))
        at = draw(st.integers(0, len(lines)))
        if fault in ("dup", "flip") and pairs:
            u, v = map(str, draw(st.sampled_from(pairs)))
            lines.insert(at, [u, v] if fault == "dup" else [v, u])
        elif fault == "loop":
            lines.insert(at, [str(draw(vertex))] * 2)
        elif fault == "range":
            lines.insert(at, [str(draw(st.sampled_from([0, n + 1, -1]))), str(draw(vertex))])
        elif fault == "junk":
            lines.insert(at, [draw(st.sampled_from(JUNK)), str(draw(vertex))])
        elif fault == "short":
            lines.insert(at, [str(draw(vertex))])
        elif fault == "long":
            lines.insert(at, [str(draw(vertex))] * 3)
    mu = draw(st.integers(0, len(lines)))
    md = len(lines) - mu
    header = [str(n), str(mu), str(md)]
    shape = draw(st.sampled_from(["ok"] * 6 + ["more", "fewer", "negative", "short", "junk", "none"]))
    if shape == "more":
        header[draw(st.integers(1, 2))] = str(len(lines) + 1)
    elif shape == "fewer" and lines:
        header[1], header[2] = str(max(mu - 1, 0)), str(md if mu else md - 1)
    elif shape == "negative":
        header[draw(st.integers(0, 2))] = "-1"
    elif shape == "short":
        header.pop()
    elif shape == "junk":
        header[draw(st.integers(0, 2))] = draw(st.sampled_from(JUNK))

    if wide:  # about a third of the names respelled, the header's too
        respell = st.sampled_from(helpers.RESPELLINGS)
        header, *lines = [
            [draw(respell)(t) if t.isdigit() and draw(st.integers(0, 2)) == 0 else t
             for t in toks]
            for toks in [header, *lines]
        ]
    body = [] if shape == "none" else [draw(line_of(header))]
    body += [draw(line_of(toks)) for toks in lines]
    out = []
    for text in body:  # comments and blank lines anywhere, before the header too
        while draw(st.integers(0, 5)) == 5:
            out.append(draw(st.sampled_from(["", "   ", "# note", "  #x 1 2", "#"])))
        out.append(text)
    text = "".join(line + draw(st.sampled_from(NEWLINES)) for line in out)
    if out and draw(st.booleans()):
        text = text.rstrip("\n")
    form = draw(st.sampled_from(["str"] * 5 + ["bytes", "bytes", "bad-bytes"]))
    if form == "bytes":
        return text.encode("utf-8")
    if form == "bad-bytes":
        return text.encode("utf-8") + b"\xff"
    return text


@PROPERTY
@given(graph_texts())
@example(text="4 2 0\n1 4\n3 4\n")  # the parser's key set yields vertex 4's row as (2, 0)
def test_parse_matches_reference(text):
    got = outcome(parse_graph, text)
    assert got == outcome(helpers.reference_parse_graph, text)
    if got[0] == "ok":  # the parser skips the constructor's check; it must pass
        g = got[1]
        assert g == PartialGraph(g.n, g.undirected, g.directed_out)


@PROPERTY
@given(graph_texts(wide=True))
@example(text="300 2 0\n299 300\n0300 +299\n")  # one edge in two spellings
def test_respelled_names_parse_to_one_int_per_vertex(text):
    got = outcome(parse_graph, text)
    assert got == outcome(helpers.reference_parse_graph, text)
    if got[0] == "ok":
        g = got[1]
        assert g == PartialGraph(g.n, g.undirected, g.directed_out)
        shared: dict[int, int] = {}
        for row in g.undirected + g.directed_out:
            for v in row:
                assert shared.setdefault(v, v) is v


@st.composite
def adjacency_fields(draw):
    """(n, undirected, directed_out): a valid graph's rows, often mutated."""
    n = draw(st.integers(0, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kinds = draw(st.lists(st.sampled_from("u.dr"), min_size=len(pairs), max_size=len(pairs)))
    und = [[] for _ in range(n)]
    out = [[] for _ in range(n)]
    for (u, v), kind in zip(pairs, kinds):
        if kind == "u":
            und[u].append(v)
            und[v].append(u)
        elif kind == "d":
            out[u].append(v)
        elif kind == "r":
            out[v].append(u)
    for _ in range(draw(st.integers(0, 2))):
        rows = draw(st.sampled_from([und, out]))
        if not rows:
            break
        row = rows[draw(st.integers(0, n - 1))]
        edit = draw(st.sampled_from(["add", "drop", "dup", "shuffle"]))
        if edit == "add":
            row.insert(draw(st.integers(0, len(row))), draw(st.integers(-1, n)))
        elif edit == "drop" and row:
            row.pop(draw(st.integers(0, len(row) - 1)))
        elif edit == "dup" and row:
            row.append(row[draw(st.integers(0, len(row) - 1))])
        elif edit == "shuffle":
            row.reverse()
    und_t = tuple(map(tuple, und))
    out_t = tuple(map(tuple, out))
    if draw(st.integers(0, 9)) == 0:
        und_t = und_t[:-1] if und_t else ((),)
    return n, und_t, out_t


@PROPERTY
@given(adjacency_fields())
def test_partial_graph_check_matches_reference(fields):
    got = outcome(PartialGraph, *fields)
    want = outcome(helpers.check_partial_graph, *fields)
    if want[0] == "ok":
        assert got[0] == "ok"
    else:
        assert got == want


@st.composite
def component_fields(draw):
    """(n, undirected, directed_out) of small partial graphs, chordal or not,
    sometimes with one row reversed or given a duplicate entry."""
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kinds = draw(st.lists(st.sampled_from("uu.d"), min_size=len(pairs), max_size=len(pairs)))
    g = PartialGraph.from_edges(
        n,
        [p for p, k in zip(pairs, kinds) if k == "u"],
        [p for p, k in zip(pairs, kinds) if k == "d"],
    )
    und = list(g.undirected)
    if n and draw(st.integers(0, 4)) == 0:
        u = draw(st.integers(0, n - 1))
        und[u] = tuple(reversed(und[u])) + und[u][:draw(st.integers(0, 1))]
    return n, tuple(und), g.directed_out


@PROPERTY
@given(component_fields())
def test_components_match_reference(fields):
    # rows out of order are the constructor's to reject, before any split
    got = outcome(PartialGraph, *fields)
    if got[0] != "ok":
        assert got == outcome(helpers.check_partial_graph, *fields)
        assert got[1] == "neighbor lists must be sorted and duplicate-free"
        return
    g = got[1]
    assert outcome(undirected_components, g) == outcome(helpers.reference_undirected_components, g)


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("", "missing header", None),
        ("# only a comment\n\n", "missing header", None),
        ("3 2\n1 2\n", "malformed header, expected 'n m_u m_d'", 1),
        ("3 -1 0\n", "malformed header, counts must be nonnegative", 1),
        ("99999999999999999999 0 0\n", "malformed header, vertex count too large", 1),
        # the line count is checked before any edge line
        ("3 2 0\n1 1\n", "expected 2 edge lines, found 1", 1),
        ("3 1 0\n1 1\n2 3\n", "unexpected extra line", 3),
        # then the first faulty edge line wins
        ("3 3 0\n1 x\n1 1\n1 4\n", "malformed edge line, expected 'u v'", 2),
        ("3 2 0\n1 2\n# c\n1 4\n", "vertex index out of range 1..3", 4),
        ("3 1 1\n1 2\n2 1\n", "edge listed as both directed and undirected", 3),
        ("3 0 2\n1 2\n2 1\n", "duplicate directed edge", 3),
        ("3 1 0 # three vertices\n1 2\n", "malformed header, expected 'n m_u m_d'", 1),
        # a name seen before in another spelling is the same vertex, and a
        # name seen first is still checked against the range
        ("3 2 0\n1 2\n01 2\n", "duplicate undirected edge", 3),
        ("3 1 1\n1 2\n+2 1\n", "edge listed as both directed and undirected", 3),
        ("3 2 0\n1 2\n2 02\n", "self-loop", 3),
        ("3 3 0\n1 2\n2 3\n3 4\n", "vertex index out of range 1..3", 4),
    ],
)
def test_error_precedence(text, message, line):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert (str(err.value), err.value.line) == (
        f"line {line}: {message}" if line is not None else message, line
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("1000000 1 0\n1 x\n", "line 2: malformed edge line, expected 'u v'"),
        ("1000000 2 0\n1 2\n", "line 1: expected 2 edge lines, found 1"),
    ],
)
def test_faulty_input_builds_nothing_of_its_vertex_count(text, message):
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_parse_peak_per_edge_line():
    # eight interval graphs of 160 vertices, 66,111 edge lines; holding
    # every line to the end of the loop beside the key sets peaks near 129
    # bytes a line, freeing each line once read near 103
    edges: list[tuple[int, int]] = []
    for s in range(8):
        part = gen_interval(160, s)
        edges += [(160 * s + u, 160 * s + v) for u, v in part.edges()]
    text = PartialGraph.from_edges(8 * 160, edges).serialize()
    tracemalloc.start()
    try:
        g = parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.num_undirected == len(edges) > 50_000
    assert peak / len(edges) < 115


def test_not_chordal_component_after_unsorted_one_is_reported_first():
    # unsorted rows are rejected by the constructor, before any component
    four_cycle = PartialGraph.from_edges(7, helpers.cycle_edges(4))
    und = list(four_cycle.undirected)
    und[4], und[5] = (5, 6), (6, 4)  # not sorted, but a triangle
    und[6] = (4, 5)
    with pytest.raises(ValueError, match="^neighbor lists must be sorted and duplicate-free$"):
        PartialGraph(7, tuple(und), four_cycle.directed_out)
    # components are checked in order of their smallest vertex: of two
    # 4-cycles the first is reported
    second = [(4 + u, 4 + v) for u, v in helpers.cycle_edges(4)]
    g = PartialGraph.from_edges(8, helpers.cycle_edges(4) + second)
    with pytest.raises(NotChordalError) as err:
        undirected_components(g)
    assert err.value.labels == (0, 1, 2, 3)
