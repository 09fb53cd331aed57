import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from seymour import Digraph, enumerate_digon_free, parse_digraph, random_tournament, write_digraph
from seymour.errors import (
    CountMismatch,
    DigonPair,
    DuplicateEdge,
    EmptyVertexSet,
    GraphSyntaxError,
    LoopEdge,
    VertexOutOfRange,
)
from seymour.digraph import MAX_VERTICES
from strategies import digraphs

C3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
# the last id before and the first after each digit count, and the largest
BOUNDARIES = [0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 99999, 100000, MAX_VERTICES - 1]


class TestParse:
    def test_cycle(self):
        assert parse_digraph("3 3\n0 1\n1 2\n2 0\n") == C3

    def test_comments_and_blanks_ignored(self):
        text = "# a cycle\n\n2 1\n0 1\n# trailing note\n\n"
        assert parse_digraph(text) == Digraph(2, [(0, 1)])

    def test_digon_with_line_number(self):
        with pytest.raises(DigonPair) as exc:
            parse_digraph("3 2\n0 1\n1 0\n")
        assert exc.value.line == 3

    def test_loop_with_line_number(self):
        with pytest.raises(LoopEdge) as exc:
            parse_digraph("2 1\n1 1\n")
        assert exc.value.line == 2

    def test_duplicate_with_line_number(self):
        with pytest.raises(DuplicateEdge) as exc:
            parse_digraph("3 2\n0 1\n0 1\n")
        assert exc.value.line == 3

    def test_out_of_range_with_line_number(self):
        with pytest.raises(VertexOutOfRange) as exc:
            parse_digraph("2 1\n0 7\n")
        assert exc.value.line == 2
        with pytest.raises(VertexOutOfRange):
            parse_digraph("2 1\n-1 0\n")

    def test_count_mismatch(self):
        with pytest.raises(CountMismatch) as exc:
            parse_digraph("3 3\n0 1\n1 2\n")
        assert (exc.value.declared, exc.value.actual) == (3, 2)
        with pytest.raises(CountMismatch) as exc:
            parse_digraph("3 1\n0 1\n1 2\n")
        assert (exc.value.declared, exc.value.actual) == (1, 2)

    def test_syntax_errors_carry_line(self):
        with pytest.raises(GraphSyntaxError) as exc:
            parse_digraph("3 1\n0 1 2\n")
        assert exc.value.line == 2
        with pytest.raises(GraphSyntaxError):
            parse_digraph("banana\n")
        with pytest.raises(GraphSyntaxError):
            parse_digraph("2 1\nx y\n")
        with pytest.raises(GraphSyntaxError):
            parse_digraph("")
        with pytest.raises(GraphSyntaxError):
            parse_digraph("# only comments\n")

    def test_empty_vertex_set(self):
        with pytest.raises(EmptyVertexSet):
            parse_digraph("0 0\n")

    def test_negative_edge_count(self):
        with pytest.raises(GraphSyntaxError):
            parse_digraph("2 -1\n")

    def test_first_bad_line_is_reported(self):
        # sorted order would meet the digon (0,1)/(1,0) first; lines meet the loop first
        with pytest.raises(LoopEdge) as exc:
            parse_digraph("3 3\n0 1\n2 2\n1 0\n")
        assert exc.value.line == 3

    def test_validates_once_without_a_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("second validation or (n, n) matrix")

        monkeypatch.setattr(Digraph, "__init__", refuse)
        monkeypatch.setattr(Digraph, "_from_adjacency", refuse)
        g = parse_digraph("100000 2\n99999 0\n0 1\n")
        assert g.edges == ((0, 1), (99999, 0))
        assert (g.out_mask(99999), g.in_mask(0)) == (1, 1 << 99999)


class TestWrite:
    def test_cycle_canonical_bytes(self):
        assert write_digraph(C3) == "3 3\n0 1\n1 2\n2 0\n"

    def test_single_vertex(self):
        assert write_digraph(Digraph(1)) == "1 0\n"

    def test_edges_sorted_regardless_of_input_order(self):
        g = Digraph(3, [(2, 0), (0, 1), (1, 2)])
        assert write_digraph(g) == "3 3\n0 1\n1 2\n2 0\n"

    def test_every_digit_boundary_matches_the_percent_writer(self):
        # each id is the tail of the next five and the head of the five before
        k = len(BOUNDARIES)
        edges = [(u, BOUNDARIES[(i + s) % k]) for i, u in enumerate(BOUNDARIES) for s in range(1, 6)]
        g = Digraph(MAX_VERTICES, edges)
        assert write_digraph(g) == oracles.write_digraph(g)
        assert "\n100000 131071\n131071 0\n" in write_digraph(g)

    def test_a_large_document_drops_its_digit_arrays_before_the_mask(self):
        g = random_tournament(1024, 1)  # 523,776 edges: a field of 5 bytes per end
        write_digraph(Digraph(1))  # first-call allocations
        tracemalloc.start()
        try:
            text = write_digraph(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) == 4_102_242
        # 5.0 MiB of text bytes, their 5.0 MiB mask and 3.9 MiB of kept bytes; the
        # last digit pass's uint32 quotient, digit and bool shown arrays (4 MiB,
        # 4 MiB and 1 MiB) held through the mask peaked at 22.9 MiB
        assert peak < 17 * 2**20


@st.composite
def spread_digraphs(draw):
    """A small digon-free graph with its vertices spread over larger ids."""
    g = draw(digraphs())
    n = draw(st.integers(g.n, MAX_VERTICES))
    ids = draw(st.lists(st.integers(0, n - 1), min_size=g.n, max_size=g.n, unique=True))
    return Digraph(n, [(ids[u], ids[v]) for u, v in g.edges])


@settings(max_examples=200, deadline=None)
@given(spread_digraphs())
@example(Digraph(1))
@example(C3)
@example(Digraph(11, [(10, 0), (9, 10), (0, 9)]))  # one-digit ids in two-digit fields
@example(Digraph(MAX_VERTICES, [(MAX_VERTICES - 1, 0), (7, 100000), (100000, 99999)]))
def test_write_matches_the_percent_writer(g):
    assert write_digraph(g) == oracles.write_digraph(g)


@settings(max_examples=200, deadline=None)
@given(digraphs())
def test_round_trip(g):
    parsed = parse_digraph(write_digraph(g))
    assert parsed == g
    assert (parsed._out, parsed._in) == (g._out, g._in)  # the rows the parser built


def test_round_trip_on_all_small_graphs():
    for n in (1, 2, 3, 4):
        for g in enumerate_digon_free(n):
            assert parse_digraph(write_digraph(g)) == g
