"""Structural predicates over digon-free digraphs.

The four the counterexample filter calls: strong connectivity, directed
cycles, and the two local patterns it counts per edge: transitive triangles
(an edge whose endpoints share an out-neighbor) and 2-directed diamonds (two
internally disjoint 2-paths from a common tail to a common apex).
"""
from __future__ import annotations

from collections import deque

from .digraph import Digraph, Edge, _bits, _two_walks


def is_strongly_connected(g: Digraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path.  The BFS layers
    from 0, out and in, are disjoint and exclude 0, so each BFS stops once they hold
    n - 1 vertices, without expanding the layer that completed them."""
    for rows in (g._out, g._in):
        left = g.n - 1
        for layer in g._layers(0, rows):
            left -= layer.bit_count()
            if not left:
                break
        if left:
            return False
    return True


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
    count per base is the number of distinct apexes.
    """
    t, u = g._require_edge(edge)
    twice = _two_walks(g._out, t)[1]
    return set(_bits(g._out[u] & twice))

