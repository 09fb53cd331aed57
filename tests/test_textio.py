import pytest
from hypothesis import given, settings

from seymour import Digraph, enumerate_digon_free, parse_digraph, write_digraph
from seymour.errors import (
    CountMismatch,
    DigonPair,
    DuplicateEdge,
    EmptyVertexSet,
    GraphSyntaxError,
    LoopEdge,
    VertexOutOfRange,
)
from strategies import digraphs

C3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])


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
