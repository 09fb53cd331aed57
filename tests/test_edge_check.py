"""The vectorised edge check and parser against their one-at-a-time references."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from seymour import Digraph, parse_digraph, random_tournament, write_digraph
from seymour import digraph, textio
from seymour.errors import DigraphError, RowsTooLarge, TooManyVertices
from seymour.digraph import MAX_ROW_BITS, MAX_VERTICES
from strategies import digraphs

# int() accepts the first row and rejects the second; -1 and the 20-digit
# token are never vertex ids
TOKENS = [
    "0", "1", "2", "3", "+1", "-1", "1_0", "٣", "99999999999999999999",
    "x", "#", "0x1", "1.5",
]
# str.isspace characters other than the line feed, \r among them for CRLF
BLANKS = [" ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\u3000"]
MUTATIONS = [
    "blank", "comment", "token", "trailer", "drop", "copy", "reverse", "loop", "edge", "cut"
]


def _significant(row):
    return bool(row) and not row[0].startswith("#")


@st.composite
def documents(draw):
    """The document of a digraph, its edge lines shuffled, then mutated; the
    larger graphs have enough edges that numpy's unstable sorts reorder keys."""
    g = draw(digraphs(max_n=5) | digraphs(min_n=12, max_n=14))
    rows = [[str(g.n), str(g.m)]] + draw(st.permutations([[str(u), str(v)] for u, v in g.edges]))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(rows)))  # where a new line goes
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(MUTATIONS))
        if kind == "blank":
            rows.insert(at, [])
        elif kind == "comment":
            rows.insert(at, draw(st.sampled_from([["#"], ["#", "x"], ["#0", "1"]])))
        elif kind == "token" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(TOKENS))
        elif kind == "trailer":
            row.extend(draw(st.sampled_from([["#", "x"], ["#x"], ["0"]])))  # "0 1 # x"
        elif kind == "drop":
            rows.remove(row)
        elif kind == "copy":
            rows.insert(at, list(row))
        elif kind == "reverse":
            rows.insert(at, row[::-1])
        elif kind == "loop":
            rows.insert(at, [draw(st.sampled_from(TOKENS[:4]))] * 2)
        elif kind == "edge":
            rows.insert(at, draw(st.lists(st.sampled_from(TOKENS), min_size=2, max_size=2)))
        elif kind == "cut":
            del row[1:]
        rows = rows or [[]]
    significant = [row for row in rows if _significant(row)]
    if significant and len(significant[0]) > 1 and draw(st.booleans()):
        significant[0][1] = str(len(significant) - 1)  # the header counts the edge lines
    blanks = st.text(st.sampled_from(BLANKS), max_size=2)
    separator = st.text(st.sampled_from(BLANKS), min_size=1, max_size=2)
    lines = [draw(blanks) + draw(separator).join(row) + draw(blanks) for row in rows]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _outcome(call):
    """The call's value, or its error as (type, message, line)."""
    try:
        return call()
    except DigraphError as exc:
        return type(exc).__name__, str(exc), exc.line


def _parts(g):
    return g.edges, g._out, g._in


def _agree(text):
    parsed = _outcome(lambda: _parts(parse_digraph(text)))
    assert parsed == _outcome(lambda: oracles.parse_reference(text, MAX_VERTICES, MAX_ROW_BITS))
    return parsed


@settings(max_examples=300, deadline=None)
@given(documents())
@example("3 2\r\n0\t1\r\n# x\r\n\x0b\x1c1 2\u3000\r\n")
@example("  # indented\n+1 1_0\n\n0 ٣\n")
@example("99999999999999999999 0\n")
@example("3 1\n0 99999999999999999999\n")
@example("")
@example("\n")
@example("3 0")
@example("3 1\n0 1 2\n")
@example("3 1\n0\n")
@example("0003 1\n0 1\n")
@example("3 1\n0 999999999999999999\n")  # 18 digits: the plain path
@example("3 1\n0 9223372036854775807\n")  # 19 digits: the general path
@example("3 1\r\n0\t1\r\n")
@example("3 1\n2 2\n")
@example("3 2\n0 1\n0 1\n")
@example("3 2\n0 1\n1 0\n")
@example("3 1\n0 3\n")
def test_parser_matches_the_line_by_line_reference(text):
    _agree(text)


# the ASCII str.isspace characters other than the line feed, and the plain alphabet
PLAIN_BLANKS = " \t\r\x0b\x0c\x1c\x1d\x1e\x1f"
PLAIN = set("0123456789\n" + PLAIN_BLANKS)


@st.composite
def plain_documents(draw):
    """Lines of 0 to 3 digit runs of up to 20 digits between ASCII blanks, and
    sometimes one character from outside that alphabet."""
    blanks = st.text(st.sampled_from(PLAIN_BLANKS), max_size=2)
    separator = st.text(st.sampled_from(PLAIN_BLANKS), min_size=1, max_size=2)
    token = st.text(st.sampled_from("0123456789"), min_size=1, max_size=20)
    rows = draw(st.lists(st.lists(token, max_size=3), max_size=6))
    lines = [draw(blanks) + draw(separator).join(row) + draw(blanks) for row in rows]
    body = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(body)))
        body = body[:at] + draw(st.characters(max_codepoint=0x3000)) + body[at:]
    return body


@settings(max_examples=400, deadline=None)
@given(plain_documents() | st.text(st.sampled_from(sorted(PLAIN))))
@example("0 " + "9" * 18)
@example("0 " + "9" * 19)
@example("0\x081")  # the neighbours of the blanks 9-13 and 28-32 and of the digits
@example("0\x0e1")
@example("0\x1b1")
@example("0!1")
@example("0/ 1")
@example("0 1:")
def test_plain_tokenizer_matches_split_on_lines_of_zero_or_two_tokens(body):
    assert {chr(c) for c in range(128) if chr(c).isspace()} == set(PLAIN_BLANKS + "\n")
    values = textio._plain_values(body)
    tokens = body.split()
    lines = set(map(len, map(str.split, body.split("\n")))) <= {0, 2}
    short = max(map(len, tokens), default=0) <= 18
    assert (values is not None) == (set(body) <= PLAIN and lines and short)
    if values is not None:
        assert values.dtype == np.int64
        assert values.tolist() == list(map(int, tokens))


@pytest.mark.parametrize(
    "text",
    [
        "3 1\n1 1\n",
        "3 2\n0 1\n0 1\n",
        "3 2\r\n0\t1\r\n1 0\r\n",
        "3 1\n0 999999999999999999\n",
        "3 1\n3 0\n",
        "3 2\n0 1\n",
        "0 0\n",
        "999999999999999999 0\n",
        f"{MAX_VERTICES} 4096\n" + "".join(f"{u} 1\n" for u in range(4096)),
    ],
)
def test_errors_from_plain_documents_carry_python_ints(text):
    assert textio._plain_values(text) is not None
    with pytest.raises(DigraphError) as exc:
        parse_digraph(text)
    want = _outcome(lambda: oracles.parse_reference(text, MAX_VERTICES, MAX_ROW_BITS))
    assert (type(exc.value).__name__, str(exc.value), exc.value.line) == want
    assert all(type(value) is int for value in exc.value.args)
    assert type(exc.value.line) in (int, type(None))


# documents with two errors: the fixed precedence decides which one is reported
@pytest.mark.parametrize(
    "text, error, line",
    [
        pytest.param("3 3\n0 x\n0 1\n1 0\n", "GraphSyntaxError", 2, id="syntax-then-digon"),
        pytest.param("3 3\n0 1\n1 0\n0 x\n", "DigonPair", 3, id="digon-then-syntax"),
        pytest.param("3 3\n0 1\n1 0 # x\n1 0\n", "GraphSyntaxError", 3, id="trailer-then-digon"),
        pytest.param("3 3\n0 1\n0 1\n1 0\n", "DuplicateEdge", 3, id="duplicate-then-digon"),
        pytest.param("3 3\n0 1\n1 0\n0 1\n", "DigonPair", 3, id="digon-then-duplicate"),
        pytest.param("3 2\n0 x\n", "CountMismatch", None, id="count-before-syntax"),
        pytest.param("3 x\n0 9\n", "GraphSyntaxError", 1, id="header-first"),
    ],
)
def test_first_of_two_errors(text, error, line):
    kind, _, got = _agree(text)
    assert (kind, got) == (error, line)


ENDPOINTS = st.integers(-1, 5) | st.sampled_from([2**63, -(2**70)])


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 5), st.lists(st.tuples(ENDPOINTS, ENDPOINTS), max_size=10))
def test_constructor_reports_the_first_bad_edge_in_sorted_order(n, edges):
    assert _outcome(lambda: _parts(Digraph(n, edges))) == _outcome(
        lambda: oracles.digraph_parts(n, edges)
    )


def test_header_above_the_limit_is_rejected_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(TooManyVertices) as exc:
            parse_digraph("1000000000 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (exc.value.n, exc.value.limit, exc.value.line) == (10**9, MAX_VERTICES, 1)
    assert peak < 1 << 20
    with pytest.raises(TooManyVertices):  # before the edge count is compared
        parse_digraph(f"# big\n{MAX_VERTICES + 1} 5\n")
    g = parse_digraph(f"{MAX_VERTICES} 1\n{MAX_VERTICES - 1} 0\n")
    assert g.in_mask(0) == 1 << MAX_VERTICES - 1
    assert (MAX_VERTICES + 64) * MAX_VERTICES < 2**63  # the check's edge keys fit int64


def test_rows_past_the_bit_limit_are_rejected_before_allocating(monkeypatch):
    # 4,096 lines "u 131071" under the largest header: each out-row would be a
    # 16 KB int, 64 MiB of rows from a document of under 48 KB
    text = f"{MAX_VERTICES} 4096\n" + "".join(f"{u} {MAX_VERTICES - 1}\n" for u in range(4096))
    assert len(text) < 48 * 1024

    def forbidden(*args):
        raise AssertionError("rows built past the bit limit")

    monkeypatch.setattr(textio, "_checked_parts", forbidden)
    tracemalloc.start()
    try:
        with pytest.raises(RowsTooLarge) as exc:
            parse_digraph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (exc.value.bits, exc.value.limit, exc.value.line) == (2**29, MAX_ROW_BITS, 1)
    assert 2**29 > MAX_ROW_BITS
    assert peak < 4 << 20  # the document's tokens, not its rows
    assert _outcome(lambda: parse_digraph(text)) == _outcome(
        lambda: oracles.parse_reference(text, MAX_VERTICES, MAX_ROW_BITS)
    )


def test_rows_at_the_bit_limit_parse():
    # min(n, m) * n is MAX_ROW_BITS at m = MAX_ROW_BITS // n edges, one over past it
    m = MAX_ROW_BITS // MAX_VERTICES
    text = f"# at the limit\n{MAX_VERTICES} {m}\n" + "".join(f"{u} 0\n" for u in range(1, m + 1))
    assert parse_digraph(text).in_mask(0) == (1 << m + 1) - 2
    with pytest.raises(RowsTooLarge) as exc:
        parse_digraph(text.replace(f" {m}\n", f" {m + 1}\n", 1) + f"{m + 1} 0\n")
    assert (exc.value.bits, exc.value.line) == ((m + 1) * MAX_VERTICES, 2)


class _Unsplit(str):
    """A document that fails the test if it is split into lines."""

    def split(self, *args, **kwargs):
        raise AssertionError("a valid plain document was split into lines")


@pytest.mark.parametrize("text", ["1 0\n", "3 3\n0 1\n1 2\n2 0\n", f"{MAX_VERTICES} 1\n0 1\n"])
def test_a_valid_plain_document_never_looks_up_a_line_number(text):
    # line numbers come from splitting the document, so the size checks and
    # the edge check may only ask for one when they raise
    assert parse_digraph(_Unsplit(text)) == parse_digraph(text)


def _peak(call):
    """The tracemalloc peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_edges_are_read_in_memory_that_grows_with_the_rows():
    # 256 out-rows as wide as head 131071: 4 MiB of rows, and 32 MiB if every
    # one of their bits were unpacked to a byte
    n = MAX_VERTICES
    g = parse_digraph(f"{n} 256\n" + "".join(f"{u} {n - 1}\n" for u in range(256)))
    assert sum(row.bit_length() for row in g._out) == 256 * n
    assert _peak(lambda: g.edges) < 8 << 20
    assert g.edges == tuple((u, n - 1) for u in range(256))
    # a write reads the same rows, and nothing as large as them: its peak is 4.05 MiB
    assert _peak(lambda: write_digraph(g)) < 8 << 20
    assert write_digraph(g) == f"{n} 256\n" + "".join(f"{u} {n - 1}\n" for u in range(256))


def test_a_dense_write_holds_memory_that_grows_with_m():
    # 523,776 edges: formatted through a tuple of their 2m ints the write peaks
    # at 58.9 MiB; field by field in numpy arrays it peaks at about 23 MiB
    g = random_tournament(1024, seed=1)
    assert _peak(lambda: write_digraph(g)) < 32 << 20


def test_an_edge_is_deleted_without_an_n_by_n_matrix():
    # two disjoint edges on 8,192 vertices: an unpacked (n, n) matrix is 64 MiB
    g = parse_digraph("8192 2\n0 1\n2 3\n")
    assert _peak(lambda: g.delete_edge((2, 3))) < 1 << 20
    assert g.delete_edge((2, 3)) == Digraph(8192, [(0, 1)])
    assert g.delete_edge((2, 3)).in_mask(3) == 0


def test_plain_documents_parse_within_the_general_tokenizers_peak():
    text = write_digraph(random_tournament(300, seed=1))  # 44,850 edge lines
    wide = text.replace(" ", "\u3000", 1)  # one non-ASCII blank: the general tokenizer
    assert textio._plain_values(text) is not None and textio._plain_values(wide) is None
    assert parse_digraph(text) == parse_digraph(wide)
    assert _peak(lambda: parse_digraph(text)) <= _peak(lambda: parse_digraph(wide))


def test_the_edge_reader_reuses_its_arrays_of_m():
    # 523,776 edges, 8 MiB of tails and heads: a reader that keeps its int64
    # temporaries of m beside them peaks at 16.6 MiB, one that works on them in
    # place holds three arrays of m at most and peaks at 12.6 MiB
    g = random_tournament(1024, seed=1)
    assert _peak(g._edge_arrays) < 13 << 20
    tails, heads = g._edge_arrays()
    want = np.nonzero(g._adjacency())  # row-major: sorted by tail, then head
    assert (tails.dtype, heads.dtype) == (np.int64, np.int64)
    assert (tails == want[0]).all() and (heads == want[1]).all()


@pytest.mark.parametrize(
    "last, error",
    [
        pytest.param(lambda u, v: (v, u), "DigonPair", id="reversed"),
        pytest.param(lambda u, v: (u, v), "DuplicateEdge", id="repeated"),
        pytest.param(lambda u, v: (u, u), "LoopEdge", id="loop"),
    ],
)
def test_a_large_plain_document_whose_last_line_is_its_only_bad_one(last, error):
    # 44,850 good edge lines, then one bad: the valid path's one sort of the pair
    # keys must see it, and the stable search must name the last line
    text = write_digraph(random_tournament(300, seed=1))
    header, first, rest = text.split("\n", 2)
    u, v = map(int, first.split())
    lines = text.count("\n") + 1  # the appended line's number
    text = f"300 {lines - 1}\n{first}\n{rest}" + "%d %d\n" % last(u, v)
    assert textio._plain_values(text) is not None and header == f"300 {lines - 2}"
    kind, _, line = _agree(text)
    assert (kind, line) == (error, lines)
    edges = [tuple(map(int, row.split())) for row in text.splitlines()[1:]]
    got = _outcome(lambda: _parts(Digraph(300, edges)))  # the same edges, checked in sorted order
    assert got[0] == error and got == _outcome(lambda: oracles.digraph_parts(300, edges))


def test_rows_of_no_keys_at_the_vertex_limit():
    rows = digraph._rows(MAX_VERTICES, MAX_VERTICES, np.zeros(0, dtype=np.int64))
    assert rows == (0,) * MAX_VERTICES
    assert _parts(parse_digraph(f"{MAX_VERTICES} 0\n")) == ((), rows, rows)
