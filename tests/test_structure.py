import pytest
from hypothesis import given, settings

import oracles
from seymour import (
    Digraph,
    diamond_base_targets,
    has_directed_cycle,
    is_strongly_connected,
    triangle_base_count,
)
from seymour.errors import NoSuchEdge
from strategies import digraphs, digraphs_with_edge

C3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
C5 = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
TT = Digraph(3, [(0, 1), (0, 2), (1, 2)])
DIAMOND = Digraph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])  # t=0, u=1, v=2, w=3


def test_strong_connectivity():
    assert is_strongly_connected(C3)
    assert not is_strongly_connected(TT)  # nothing reaches the source
    assert is_strongly_connected(Digraph(1))


class _Reads(tuple):
    """Rows that record the index of each row read."""

    def __getitem__(self, i):
        self.read.append(i)
        return super().__getitem__(i)


def test_connectivity_bfs_stops_once_its_layers_cover_v():
    # a regular tournament on 7 vertices: from 0, layer 1 out is {1, 2, 3} and
    # layer 1 in is {4, 5, 6}, and layer 2 holds the rest of V either way, so
    # neither BFS expands its layer 2
    t = Digraph(7, [(i, (i + s) % 7) for i in range(7) for s in (1, 2, 3)])
    out, inn = _Reads(t._out), _Reads(t._in)
    out.read, inn.read = [], []
    assert is_strongly_connected(Digraph._from_rows(out, inn))
    assert (sorted(out.read), sorted(inn.read)) == ([0, 1, 2, 3], [0, 4, 5, 6])


@settings(max_examples=120, deadline=None)
@given(digraphs())
def test_strong_connectivity_matches_oracle(g):
    assert is_strongly_connected(g) == oracles.strongly_connected(g.n, g.edges)


@settings(max_examples=120, deadline=None)
@given(digraphs())
def test_strong_connectivity_equals_total_walkability(g):
    full = set(range(g.n))
    walkable_everywhere = all(g.walkable_neighborhood(u) == full for u in range(g.n))
    assert is_strongly_connected(g) == walkable_everywhere


def test_directed_cycle():
    assert has_directed_cycle(C3)
    assert not has_directed_cycle(TT)
    assert not has_directed_cycle(Digraph(1))


@settings(max_examples=120, deadline=None)
@given(digraphs())
def test_directed_cycle_matches_oracle(g):
    assert has_directed_cycle(g) == oracles.has_cycle(g.n, g.edges)


def has_transitive_triangle(g):
    return oracles.has_transitive_triangle(g.n, g.edges)


def min_outdegree_vertex(g):
    return oracles.min_out_degree_vertex(g.n, g.edges)


def test_transitive_triangle_detection():
    assert has_transitive_triangle(TT)
    assert not has_transitive_triangle(C3)
    assert not has_transitive_triangle(C5)


def test_triangle_base_count():
    assert triangle_base_count(TT, (0, 1)) == 1
    assert all(triangle_base_count(C3, e) == 0 for e in C3.edges)
    # two shared out-neighbors of 0 and 1 (frozen from the set oracle)
    g = Digraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert triangle_base_count(g, (0, 1)) == 2
    assert triangle_base_count(g, (0, 1)) == len(
        oracles.triangle_bases(g.n, g.edges, (0, 1))
    )


def test_triangle_base_missing_edge():
    with pytest.raises(NoSuchEdge):
        triangle_base_count(C3, (1, 0))


def test_diamond_base_targets():
    assert diamond_base_targets(DIAMOND, (0, 1)) == {3}
    assert all(diamond_base_targets(C3, e) == set() for e in C3.edges)
    assert diamond_base_targets(TT, (0, 1)) == set()  # no fourth vertex


@settings(max_examples=120, deadline=None)
@given(digraphs_with_edge(max_n=7))
def test_diamond_targets_match_quadruple_enumeration(ge):
    g, e = ge
    assert diamond_base_targets(g, e) == oracles.diamond_apexes(g.n, g.edges, e)


def test_min_outdegree_vertex():
    assert min_outdegree_vertex(TT) == 2  # the sink
    assert min_outdegree_vertex(C3) == 0  # tie broken by id


@settings(max_examples=150, deadline=None)
@given(digraphs())
def test_min_outdegree_satisfactory_when_triangle_free(g):
    # without transitive triangles the minimum-out-degree vertex cannot be
    # beaten: its second neighborhood swallows a whole first neighborhood
    if not has_transitive_triangle(g):
        assert g.profile(min_outdegree_vertex(g)).satisfactory


@settings(max_examples=150, deadline=None)
@given(digraphs())
def test_counterexamples_would_need_cycles(g):
    if not g.satisfactory_vertices():
        assert has_directed_cycle(g)


@settings(max_examples=120, deadline=None)
@given(digraphs())
def test_some_triangle_base_iff_triangle_exists(g):
    any_base = any(triangle_base_count(g, e) >= 1 for e in g.edges)
    assert any_base == has_transitive_triangle(g)
