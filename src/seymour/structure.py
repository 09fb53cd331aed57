"""Structural predicates over digon-free digraphs.

Cycle and connectivity tests, and the two local patterns
the counterexample filter counts per edge: transitive triangles (an edge
whose endpoints share an out-neighbor) and 2-directed diamonds (two
internally disjoint 2-paths from a common tail to a common apex).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .digraph import Digraph, Edge, _bits, _two_walks


@dataclass(frozen=True)
class DiamondWitness:
    """Four distinct vertices carrying edges (t,u), (u,w), (t,v), (v,w).

    (t,u) and (t,v) are the bases of the diamond, w its apex.
    """

    t: int
    u: int
    v: int
    w: int


def is_strongly_connected(g: Digraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path."""
    # the BFS layers from 0 are disjoint and exclude 0: they cover V iff n - 1 vertices
    return all(
        sum(layer.bit_count() for layer in g._layers(0, rows)) == g.n - 1
        for rows in (g._out, g._in)
    )


def has_directed_cycle(g: Digraph) -> bool:
    """True iff g contains a directed cycle (necessarily of length >= 3)."""
    indeg = [g._in[u].bit_count() for u in range(g.n)]
    queue = deque(u for u in range(g.n) if indeg[u] == 0)
    peeled = 0
    while queue:
        u = queue.popleft()
        peeled += 1
        for v in _bits(g._out[u]):
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return peeled < g.n


def has_transitive_triangle(g: Digraph) -> bool:
    """True iff some edge (a,b) has a shared out-neighbor of a and b."""
    return any(g._out[u] & g._out[v] for u, v in g.edges)


def triangle_base_count(g: Digraph, edge: Edge) -> int:
    """Number of transitive triangles having ``edge`` as base: |N1(u) ∩ N1(v)|."""
    u, v = g._require_edge(edge)
    return (g._out[u] & g._out[v]).bit_count()


def diamond_base_targets(g: Digraph, edge: Edge) -> set[int]:
    """Apexes w of 2-directed diamonds having ``edge`` = (t,u) as a base.

    w qualifies when (u,w) is an edge and some v outside {t,u,w} carries
    (t,v) and (v,w).  t -> u -> w is always one 2-walk, and without loops
    or digons every other midpoint v lies outside {t,u,w}, so the apexes
    are the out-neighbors of u that end at least two 2-walks from t: one
    pass over the edges out of t, then O(1) bitset operations.  A diamond's
    count per base is the number of distinct apexes; use
    :func:`diamond_witnesses` to recover the (v,w) pairs.
    """
    t, u = g._require_edge(edge)
    twice = _two_walks(g._out, t)[1]
    return set(_bits(g._out[u] & twice))


def diamond_witnesses(g: Digraph, edge: Edge) -> list[DiamondWitness]:
    """All 2-directed diamonds with ``edge`` as a base, as full 4-tuples."""
    t, u = g._require_edge(edge)
    excluded = (1 << t) | (1 << u)
    found = []
    for w in _bits(g._out[u]):
        for v in _bits(g._out[t] & g._in[w] & ~excluded & ~(1 << w)):
            found.append(DiamondWitness(t=t, u=u, v=v, w=w))
    return found


def min_outdegree_vertex(g: Digraph) -> int:
    """A vertex of minimum out-degree; ties broken by smallest id."""
    return min(range(g.n), key=lambda u: (g._out[u].bit_count(), u))
