import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from seymour import (
    Digraph,
    build_product,
    parse_digraph,
    random_tournament,
    run_filter,
    write_digraph,
)
from seymour.digraph import MAX_ROW_BITS, MAX_VERTICES
from seymour.errors import (
    DigonPair,
    DuplicateEdge,
    EmptySubset,
    EmptyVertexSet,
    LoopEdge,
    NonPositiveK,
    NoSuchEdge,
    RowsTooLarge,
    TooManyVertices,
    VertexOutOfRange,
    WouldBeEmpty,
)
from strategies import digon_free_adjacency, digraphs, digraphs_with_edge

C3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
TT = Digraph(3, [(0, 1), (0, 2), (1, 2)])  # transitive triangle, sink is 2


class TestConstruction:
    def test_cycle(self):
        g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert g.n == 3
        assert g.edges == ((0, 1), (1, 2), (2, 0))

    def test_digon_rejected(self):
        with pytest.raises(DigonPair) as exc:
            Digraph(3, [(0, 1), (1, 0)])
        assert (exc.value.u, exc.value.v) == (0, 1)

    def test_loop_rejected(self):
        with pytest.raises(LoopEdge) as exc:
            Digraph(2, [(1, 1)])
        assert exc.value.vertex == 1

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdge):
            Digraph(2, [(0, 1), (0, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexOutOfRange) as exc:
            Digraph(2, [(0, 5)])
        assert exc.value.vertex == 5

    def test_empty_vertex_set_rejected(self):
        with pytest.raises(EmptyVertexSet):
            Digraph(0, [])

    def test_first_offender_in_canonical_order(self):
        # (0,0) sorts before the out-of-range (5,0), so the loop wins.
        with pytest.raises(LoopEdge):
            Digraph(3, [(5, 0), (0, 0)])

    def test_immutable(self):
        with pytest.raises(AttributeError):
            C3.n = 5

    def test_equality_and_hash(self):
        twin = Digraph(3, [(2, 0), (0, 1), (1, 2)])
        assert twin == C3
        assert hash(twin) == hash(C3)
        assert TT != C3

    def test_pickle_round_trip(self):
        import pickle

        clone = pickle.loads(pickle.dumps(TT))
        assert clone == TT
        assert clone.out_neighbors(0) == {1, 2}

    def test_n_is_an_index(self):
        one = Digraph(True).n
        assert type(one) is int and one == 1
        assert type(Digraph(np.int64(3)).n) is int
        with pytest.raises(TypeError):
            Digraph(2.5)


class _Unread:
    """An edge iterable that fails the test if anything reads it."""

    def __iter__(self):
        raise AssertionError("the edges were read before n was checked")


class TestSizeLimits:
    """Digraph(n, edges) holds to the parser's limits, so a graph built from
    user input writes a document that parse_digraph reads back."""

    @pytest.mark.parametrize("n", [MAX_VERTICES + 1, 10**7])
    def test_n_past_the_limit_raises_before_the_edges_are_read(self, n):
        tracemalloc.start()
        try:
            with pytest.raises(TooManyVertices) as exc:
                Digraph(n, _Unread())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (exc.value.n, exc.value.limit, exc.value.line) == (n, MAX_VERTICES, None)
        assert peak < 64 << 10

    def test_rows_past_the_bit_limit_raise_as_the_parser_does(self):
        # 2,049 distinct tails on MAX_VERTICES vertices: min(n, m) * n is one
        # row of n bits past MAX_ROW_BITS
        edges = [(u, 0) for u in range(1, 2050)]
        with pytest.raises(RowsTooLarge) as exc:
            Digraph(MAX_VERTICES, edges)
        text = f"{MAX_VERTICES} 2049\n" + "".join(f"{u} {v}\n" for u, v in edges)
        with pytest.raises(RowsTooLarge) as parsed:
            parse_digraph(text)
        assert (exc.value.bits, exc.value.limit) == (parsed.value.bits, parsed.value.limit)
        assert exc.value.bits == 2049 * MAX_VERTICES > MAX_ROW_BITS
        assert exc.value.line is None

    def test_the_size_comes_before_the_edges(self):
        with pytest.raises(EmptyVertexSet):
            Digraph(0, [(0, 0)])
        with pytest.raises(TooManyVertices):
            Digraph(MAX_VERTICES + 1, [(0, 0)])
        with pytest.raises(RowsTooLarge):  # a loop in an edge list past the row limit
            Digraph(MAX_VERTICES, [(0, 0)] + [(u, 0) for u in range(1, 2049)])

    def test_graphs_at_the_limits_round_trip(self):
        top = Digraph(MAX_VERTICES, [(MAX_VERTICES - 1, 0), (7, MAX_VERTICES - 1)])
        assert parse_digraph(write_digraph(top)) == top
        m = MAX_ROW_BITS // MAX_VERTICES  # min(n, m) * n is MAX_ROW_BITS
        full = Digraph(MAX_VERTICES, [(u, 0) for u in range(1, m + 1)])
        assert full.m == m and parse_digraph(write_digraph(full)) == full


class TestNeighborhoods:
    def test_out_neighbors(self):
        assert C3.out_neighbors(0) == {1}
        assert TT.out_neighbors(0) == {1, 2}
        assert Digraph(1).out_neighbors(0) == set()

    def test_in_neighbors(self):
        assert C3.in_neighbors(0) == {2}
        assert TT.in_neighbors(2) == {0, 1}
        assert Digraph(2, [(0, 1)]).in_neighbors(0) == set()

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            C3.out_neighbors(3)
        with pytest.raises(VertexOutOfRange):
            C3.profile(-1)

    def test_kth_layer(self):
        assert C3.kth_neighborhood(0, 2) == {2}
        assert TT.kth_neighborhood(0, 2) == set()  # 2 is at distance 1
        assert C3.kth_neighborhood(0, 3) == set()  # dist(0,0) = 0, never 3

    def test_kth_layer_inward(self):
        assert C3.kth_neighborhood(0, 2, "in") == {1}
        assert TT.kth_neighborhood(2, 1, "in") == {0, 1}

    def test_kth_rejects_bad_k(self):
        with pytest.raises(NonPositiveK):
            C3.kth_neighborhood(0, 0)

    def test_kth_rejects_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            C3.kth_neighborhood(0, 1, "sideways")

    def test_walkable(self):
        assert C3.walkable_neighborhood(0) == {0, 1, 2}
        assert TT.walkable_neighborhood(2) == {2}
        assert Digraph(3, [(0, 1), (1, 2)]).walkable_neighborhood(1) == {1, 2}


class TestProfiles:
    def test_transitive_triangle_source(self):
        p = TT.profile(0)
        assert (p.n1, p.n2, p.anti_satisfaction, p.satisfactory) == (2, 0, 2, False)

    def test_cycle_vertices(self):
        for u in range(3):
            p = C3.profile(u)
            assert (p.n1, p.n2, p.anti_satisfaction, p.satisfactory) == (1, 1, 0, True)

    def test_sink_is_satisfactory(self):
        p = TT.profile(2)
        assert (p.n1, p.n2, p.satisfactory) == (0, 0, True)

    def test_satisfactory_vertices(self):
        assert C3.satisfactory_vertices() == {0, 1, 2}
        assert TT.satisfactory_vertices() == {2}

    def test_first_satisfactory_matches_set(self):
        assert C3.first_satisfactory_vertex() == 0
        assert TT.first_satisfactory_vertex() == 2


class TestDerivations:
    def test_induced_pair(self):
        sub, relabel = TT.induced_subgraph({0, 1})
        assert sub == Digraph(2, [(0, 1)])
        assert relabel == {0: 0, 1: 1}

    def test_induced_identity(self):
        sub, relabel = C3.induced_subgraph(range(3))
        assert sub == C3
        assert relabel == {0: 0, 1: 1, 2: 2}

    def test_induced_relabels_densely(self):
        sub, relabel = C3.induced_subgraph({1, 2})
        assert relabel == {1: 0, 2: 1}
        assert sub == Digraph(2, [(0, 1)])

    def test_induced_rejects_empty(self):
        with pytest.raises(EmptySubset):
            C3.induced_subgraph(set())

    def test_induced_rejects_foreign_vertices(self):
        with pytest.raises(VertexOutOfRange):
            C3.induced_subgraph({0, 4})

    def test_delete_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            C3.delete_vertex(9)

    def test_delete_edge_can_grow_second_neighborhood(self):
        g = Digraph(3, [(0, 1), (0, 2), (2, 1)])
        z = g.delete_edge((0, 1))
        assert g.kth_neighborhood(0, 2) == set()
        assert z.kth_neighborhood(0, 2) == {1}

    def test_delete_edge_makes_sink(self):
        z = C3.delete_edge((0, 1))
        assert z.out_neighbors(0) == set()
        assert z.profile(0).satisfactory

    def test_delete_edge_keeps_other_second_neighborhoods(self):
        z = TT.delete_edge((1, 2))
        assert z.kth_neighborhood(0, 2) == set()

    def test_delete_edge_missing(self):
        with pytest.raises(NoSuchEdge):
            C3.delete_edge((1, 0))

    def test_delete_vertex(self):
        z, relabel = TT.delete_vertex(2)
        assert z == Digraph(2, [(0, 1)])
        assert relabel == {0: 0, 1: 1}

    def test_delete_vertex_relabels(self):
        z, relabel = C3.delete_vertex(0)
        assert relabel == {1: 0, 2: 1}
        assert z == Digraph(2, [(0, 1)])

    def test_delete_vertex_from_star(self):
        star = Digraph(4, [(0, 1), (0, 2), (0, 3)])
        z, _ = star.delete_vertex(1)
        assert z.out_degree(0) == 2

    def test_delete_last_vertex(self):
        with pytest.raises(WouldBeEmpty):
            Digraph(1).delete_vertex(0)


@settings(max_examples=150, deadline=None)
@given(digraphs())
def test_out_degrees_sum_to_edge_count(g):
    assert sum(g.out_degree(u) for u in range(g.n)) == g.m


@settings(max_examples=150, deadline=None)
@given(digraphs())
def test_layers_match_bfs_distance_oracle(g):
    for u in range(g.n):
        for k in (1, 2, 3):
            assert g.kth_neighborhood(u, k) == oracles.layer(g.n, g.edges, u, k)
            assert g.kth_neighborhood(u, k, "in") == oracles.layer(
                g.n, g.edges, u, k, "in"
            )


@settings(max_examples=150, deadline=None)
@given(digraphs())
def test_second_layer_characterization(g):
    # v in N2(u) iff v outside {u} + N1(u) and some first neighbor reaches it
    for u in range(g.n):
        first = g.out_neighbors(u)
        expected = {
            v
            for v in range(g.n)
            if v != u and v not in first and any(g.has_edge(w, v) for w in first)
        }
        assert g.kth_neighborhood(u, 2) == expected


@settings(max_examples=100, deadline=None)
@given(digraphs())
def test_layers_disjoint_and_never_contain_origin(g):
    for u in range(g.n):
        seen = set()
        for k in range(1, g.n + 1):
            layer = g.kth_neighborhood(u, k)
            assert u not in layer
            assert not layer & seen
            seen |= layer


@settings(max_examples=100, deadline=None)
@given(digraphs())
def test_profiles_match_oracle(g):
    assert [(p.n1, p.n2) for p in g.profiles()] == oracles.profile_sizes(g.n, g.edges)


@settings(max_examples=40, deadline=None)
@given(digon_free_adjacency())
def test_one_pass_profiles_match_oracle_past_one_word(adj):
    g = Digraph._from_adjacency(adj)
    profiles = g.profiles()
    assert [(p.n1, p.n2) for p in profiles] == oracles.profile_sizes(g.n, g.edges)
    assert profiles == [g.profile(u) for u in range(g.n)]
    satisfactory = {u for u in range(g.n) if g.profile(u).satisfactory}
    assert g.satisfactory_vertices() == satisfactory
    assert g.first_satisfactory_vertex() == min(satisfactory, default=None)


@settings(max_examples=100, deadline=None)
@given(digraphs())
def test_sinks_are_satisfactory(g):
    for u in range(g.n):
        if g.out_degree(u) == 0:
            assert g.profile(u).satisfactory


@settings(max_examples=80, deadline=None)
@given(digraphs_with_edge())
def test_delete_edge_neighborhood_bounds(ge):
    g, (u, v) = ge
    z = g.delete_edge((u, v))
    for w in range(g.n):
        before, after = g.profile(w), z.profile(w)
        if w == u:
            assert after.n1 == before.n1 - 1
            assert after.n2 <= before.n2 + 1
        else:
            assert after.n1 == before.n1
            assert after.n2 <= before.n2


@settings(max_examples=80, deadline=None)
@given(digraphs(min_n=2), st.data())
def test_delete_vertex_never_grows_second_neighborhoods(g, data):
    u = data.draw(st.integers(0, g.n - 1))
    z, relabel = g.delete_vertex(u)
    for old, new in relabel.items():
        assert z.profile(new).n2 <= g.profile(old).n2


@settings(max_examples=80, deadline=None)
@given(digraphs(), st.data())
def test_walkable_closure_preserves_profiles(g, data):
    # N1 and N2 of anything reachable from u stay inside W(u), so the
    # induced subgraph on W(u) leaves every contained profile unchanged.
    u = data.draw(st.integers(0, g.n - 1))
    sub, relabel = g.induced_subgraph(g.walkable_neighborhood(u))
    for old, new in relabel.items():
        assert (sub.profile(new).n1, sub.profile(new).n2) == (
            g.profile(old).n1,
            g.profile(old).n2,
        )


def test_unreachable_vertices_never_appear_in_layers():
    path = Digraph(2, [(0, 1)])
    assert all(path.kth_neighborhood(1, k) == set() for k in range(1, 5))
    assert path.walkable_neighborhood(1) == {1}


class _Reads(tuple):
    """Rows that record the index of each row read."""

    def __getitem__(self, i):
        self.read.append(i)
        return super().__getitem__(i)


def test_kth_layer_stops_reading_rows_at_layer_k():
    path = Digraph(10, [(i, i + 1) for i in range(9)])
    out = _Reads(path._out)
    g = Digraph._from_rows(out, path._in)
    for k, layer, read in ((1, {1}, [0]), (3, {3}, [0, 1, 2]), (12, set(), list(range(10)))):
        out.read = []
        assert g.kth_neighborhood(0, k) == layer  # k = 12 is past 0's eccentricity, 9
        assert out.read == read


def test_exact_semantics_beyond_64_vertices():
    n = 100
    big = Digraph(n, [(i, (i + 1) % n) for i in range(n)])
    assert big.kth_neighborhood(0, 50) == {50}
    assert big.walkable_neighborhood(7) == set(range(n))
    p = big.profile(3)
    assert (p.n1, p.n2, p.satisfactory) == (1, 1, True)


def edges_of(adj):
    rows = adj.tolist()
    return [(u, v) for u, row in enumerate(rows) for v, bit in enumerate(row) if bit]


def assert_same_graph(got, want):
    """Equal as values and in every stored field, with plain Python ints."""
    assert got == want and hash(got) == hash(want)
    for name in ("n", "edges", "_out", "_in"):
        assert getattr(got, name) == getattr(want, name)
    assert type(got.n) is int
    assert all(type(x) is int for edge in got.edges for x in edge)
    assert all(type(x) is int for x in got._out + got._in)


@settings(max_examples=120, deadline=None)
@given(digon_free_adjacency())
def test_trusted_constructor_matches_validating_constructor(adj):
    g = Digraph._from_adjacency(adj)
    assert g.edges == tuple(edges_of(adj))  # read off the rows, against the matrix itself
    assert_same_graph(g, Digraph(adj.shape[0], edges_of(adj)))
    assert_same_graph(pickle.loads(pickle.dumps(g)), g)
    assert (g._adjacency() == adj).all()


def test_a_graph_stores_only_its_rows():
    assert Digraph.__slots__ == ("n", "_out", "_in")
    assert not hasattr(C3, "__dict__")


@pytest.mark.parametrize(
    "n, edges",
    [
        # heads on both sides of byte and 64-bit word bounds, in a wide row and a
        # lone last row, with empty rows between them
        (130, [(3, v) for v in (7, 8, 63, 64, 65, 129)] + [(129, 0), (129, 1)]),
        (66, [(u, 65) for u in (0, 7, 8, 63, 64)]),
        (5, [(1, 2), (2, 3), (3, 1)]),  # empty first and last rows
        (9, [(0, 8), (8, 1)]),  # bit 8 opens row 0's second byte; bit 1 of the last row
        (1, []),
        (200, []),
    ],
)
def test_edges_are_read_off_the_rows(n, edges):
    g = Digraph(n, reversed(edges))
    assert g.edges == tuple(sorted(edges))
    assert g.m == len(edges)
    assert Digraph._from_adjacency(g._adjacency()).edges == g.edges
    # int64 without edges too, where np.repeat of two empty lists is float64
    assert [a.dtype for a in g._edge_arrays()] == [np.int64, np.int64]
    assert write_digraph(g) == f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges))


def test_the_library_reads_edges_as_arrays_not_as_the_tuple(monkeypatch):
    d = random_tournament(7, seed=1)

    def results():
        product, labeling = build_product(d, C3)
        return product, labeling, product.profiles(), write_digraph(product), run_filter(
            product, short_circuit=False
        )

    want = results()
    monkeypatch.setattr(Digraph, "edges", property(lambda g: pytest.fail("read g.edges")))
    assert results() == want


@settings(max_examples=60, deadline=None)
@given(digon_free_adjacency(max_n=70), st.data())
def test_trusted_derivations_match_edge_list_oracle(adj, data):
    g = Digraph._from_adjacency(adj)
    keep = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    sub, relabel = g.induced_subgraph(keep)
    assert relabel == {old: new for new, old in enumerate(sorted(keep))}
    kept = [(relabel[u], relabel[v]) for u, v in g.edges if u in keep and v in keep]
    assert_same_graph(sub, Digraph(len(keep), kept))
    if g.n > 1:
        u = data.draw(st.integers(0, g.n - 1))
        z, relabel = g.delete_vertex(u)
        assert relabel == {old: old - (old > u) for old in range(g.n) if old != u}
        rest = [(relabel[a], relabel[b]) for a, b in g.edges if u not in (a, b)]
        assert_same_graph(z, Digraph(g.n - 1, rest))
    if g.m:
        edge = data.draw(st.sampled_from(g.edges))
        assert_same_graph(g.delete_edge(edge), Digraph(g.n, set(g.edges) - {edge}))
