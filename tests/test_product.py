import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings

import oracles
from seymour import (
    Digraph,
    build_product,
    is_strongly_connected,
    is_valid_second_factor,
    parse_digraph,
    predicted_profile,
    write_digraph,
)
from seymour.cli import main
from seymour.errors import RowsTooLarge, TooManyVertices, VertexOutOfRange
from seymour.search import random_graph
from seymour.digraph import MAX_ROW_BITS, MAX_VERTICES
from strategies import digraphs, strongly_connected_digraphs

C3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
C4 = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
SINGLE = Digraph(1)


def cycle(n):
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


class TestValidSecondFactor:
    def test_cycle_is_valid(self):
        assert is_valid_second_factor(C3)

    def test_single_vertex_is_valid(self):
        assert is_valid_second_factor(SINGLE)

    def test_outstar_tail_is_invalid(self):
        g = Digraph(4, [(0, 1), (1, 2), (1, 3)])
        assert g.profile(0).anti_satisfaction == -1
        assert not is_valid_second_factor(g)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_every_dicycle_is_valid(self, n):
        assert is_valid_second_factor(cycle(n))
        assert all(p.anti_satisfaction == 0 for p in cycle(n).profiles())


class TestBuildProduct:
    def test_single_second_factor_reproduces_first(self):
        product, labeling = build_product(C3, SINGLE)
        assert product == C3
        assert [labeling.decode(i) for i in range(3)] == [(0, 0), (1, 0), (2, 0)]

    def test_single_first_factor_reproduces_second(self):
        product, _ = build_product(SINGLE, C3)
        assert product == C3

    def test_cycle_times_cycle(self):
        product, _ = build_product(C3, C3)
        assert product.n == 9
        assert product.m == 36
        assert all(product.out_degree(u) == 4 for u in range(9))
        assert sum(product.out_degree(u) for u in range(9)) == product.m

    def test_labeling_is_a_bijection(self):
        _, labeling = build_product(C4, C3)
        pids = [labeling.encode(d, h) for d in range(4) for h in range(3)]
        assert sorted(pids) == list(range(12))
        for pid in range(12):
            d, h = labeling.decode(pid)
            assert labeling.encode(d, h) == pid

    def test_labeling_rejects_bad_ids(self):
        _, labeling = build_product(C3, C3)
        with pytest.raises(VertexOutOfRange):
            labeling.encode(3, 0)
        with pytest.raises(VertexOutOfRange):
            labeling.decode(9)
        for h in (-1, 3):
            with pytest.raises(VertexOutOfRange):
                labeling.encode(0, h)


@settings(max_examples=100, deadline=None)
@given(digraphs(max_n=6), digraphs(max_n=6))
@example(C3, C4)  # in-rows built from the out-rows differ on any factor with an edge
@example(SINGLE, SINGLE)
@example(C4, SINGLE)
@example(SINGLE, C4)
@example(Digraph(3), C3)
@example(C3, Digraph(4))
@example(random_graph("tournament", 13, 0.5, 1), cycle(5))  # rows past one 64-bit word
@example(cycle(5), random_graph("digon_free", 30, 0.3, 2))
def test_build_product_matches_the_kronecker_oracle(d_graph, h_graph):
    product, _ = build_product(d_graph, h_graph)
    out, inn = oracles.product_rows(d_graph.n, d_graph.edges, h_graph.n, h_graph.edges)
    assert (product.n, product._out, product._in) == (d_graph.n * h_graph.n, out, inn)


def test_build_product_holds_only_its_rows():
    # a 255-vertex tournament times C8: 2,040 vertices, 1.2 MB of rows; the
    # Kronecker oracle's two (n, n) bool matrices alone would be 6.7 times that
    d_graph, h_graph = random_graph("tournament", 255, 0.5, 1), cycle(8)
    tracemalloc.start()
    try:
        product, _ = build_product(d_graph, h_graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = product._out + product._in
    held = sum(map(sys.getsizeof, rows)) + 2 * sys.getsizeof(product._out)
    assert peak < 1.1 * held


def test_too_many_product_vertices_raise_before_the_rows(capsys, tmp_path):
    # 363 * 363 = 131,769 vertices, past MAX_VERTICES = 2^17; their rows
    # would be two tuples of 131,769 ints, about 2 MB
    empty = Digraph(363)
    tracemalloc.start()
    try:
        with pytest.raises(TooManyVertices) as raised:
            build_product(empty, empty)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (raised.value.n, raised.value.limit) == (363 * 363, MAX_VERTICES)
    assert peak < 1 << 16
    factor = tmp_path / "e363.dg"
    factor.write_text("363 0\n")
    argv = ["product", str(factor), str(factor), "-o", str(tmp_path / "p.dg")]
    assert main(argv) == 1
    assert "131769 vertices exceed the limit of 131072" in capsys.readouterr().err
    assert not (tmp_path / "p.dg").exists()


def test_product_rows_past_the_bit_limit_raise_before_the_rows(capsys, tmp_path):
    # two edges on 8,192 vertices times C13: 106,496 vertices, within
    # MAX_VERTICES, and 2 * 13^2 + 8,192 * 13 = 106,834 edges, so the rows the
    # parser bounds are min(n, m) * n = 106,496^2 bits, 42 times MAX_ROW_BITS
    d_graph, c13 = parse_digraph("8192 2\n0 1\n2 3\n"), cycle(13)
    tracemalloc.start()
    try:
        with pytest.raises(RowsTooLarge) as raised:
            build_product(d_graph, c13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (raised.value.bits, raised.value.limit) == (106496**2, MAX_ROW_BITS)
    assert peak < 1 << 16
    (tmp_path / "d.dg").write_text("8192 2\n0 1\n2 3\n")
    (tmp_path / "c13.dg").write_text(write_digraph(c13))
    argv = ["product", str(tmp_path / "d.dg"), str(tmp_path / "c13.dg"), "-o", str(tmp_path / "p.dg")]
    assert main(argv) == 1
    assert f"{106496**2} bits (min(n, m) * n) exceed" in capsys.readouterr().err
    assert not (tmp_path / "p.dg").exists()
    # 1,260 copies: 16,380 vertices and 16,380^2 = 268,304,400 bits, within the limit
    product, _ = build_product(parse_digraph("1260 2\n0 1\n2 3\n"), c13)
    assert (product.n, product.m) == (16380, 16718) and 16380**2 <= MAX_ROW_BITS
    assert parse_digraph(write_digraph(product)) == product


def test_predicted_profile_examples():
    # frozen from BFS on the built 9- and 12-vertex products
    for d in range(3):
        for h in range(3):
            p = predicted_profile(C3, C3, d, h)
            assert (p.n1, p.n2, p.anti_satisfaction) == (4, 4, 0)
    for d in range(4):
        for h in range(3):
            p = predicted_profile(C4, C3, d, h)
            assert (p.n1, p.n2, p.anti_satisfaction) == (4, 4, 0)
    p = predicted_profile(C3, SINGLE, 1, 0)
    assert (p.n1, p.n2, p.anti_satisfaction) == (1, 1, 0)


@settings(max_examples=100, deadline=None)
@given(digraphs(max_n=6), digraphs(max_n=6))
def test_predicted_profile_matches_measured(d_graph, h_graph):
    product, labeling = build_product(d_graph, h_graph)
    measured = oracles.profile_sizes(product.n, product.edges)
    for pid, (d, h) in labeling.pairs():
        predicted = predicted_profile(d_graph, h_graph, d, h)
        assert (predicted.n1, predicted.n2) == measured[pid]
        assert predicted == product.profile(pid)


@settings(max_examples=100, deadline=None)
@given(digraphs(max_n=6), digraphs(max_n=6))
def test_anti_satisfaction_is_additive(d_graph, h_graph):
    product, labeling = build_product(d_graph, h_graph)
    for pid, (d, h) in labeling.pairs():
        expected = (
            h_graph.profile(h).anti_satisfaction
            + h_graph.n * d_graph.profile(d).anti_satisfaction
        )
        assert product.profile(pid).anti_satisfaction == expected


@settings(max_examples=60, deadline=None)
@given(strongly_connected_digraphs(max_n=6), digraphs(max_n=5))
def test_product_of_strongly_connected_first_factor(d_graph, h_graph):
    assert is_strongly_connected(d_graph)
    product, _ = build_product(d_graph, h_graph)
    assert is_strongly_connected(product)


@settings(max_examples=100, deadline=None)
@given(digraphs(max_n=5), digraphs(max_n=5))
def test_product_stays_digon_free(d_graph, h_graph):
    # the Digraph constructor rejects digons, so surviving construction is
    # the assertion; double-check against the raw edge set anyway
    product, _ = build_product(d_graph, h_graph)
    edge_set = set(product.edges)
    assert all((v, u) not in edge_set for u, v in edge_set)
    assert all(u != v for u, v in edge_set)


def test_counterexample_propagation_shape():
    # no factor with all-positive anti-satisfaction exists at this scale,
    # so the conditional is exercised vacuously through additivity: if it
    # ever fires, additivity already forces every product vertex positive.
    d_graph, h_graph = C3, C3
    all_positive = all(p.anti_satisfaction > 0 for p in d_graph.profiles())
    if all_positive and is_valid_second_factor(h_graph):
        product, labeling = build_product(d_graph, h_graph)
        assert all(p.anti_satisfaction > 0 for p in product.profiles())
    assert not all_positive
