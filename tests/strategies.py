"""Hypothesis strategies for digon-free digraphs."""
from __future__ import annotations

from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from seymour import Digraph


def edges_from_states(n, states):
    edges = []
    for (u, v), s in zip(combinations(range(n), 2), states):
        if s == 1:
            edges.append((u, v))
        elif s == 2:
            edges.append((v, u))
    return edges


@st.composite
def digraphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    k = n * (n - 1) // 2
    states = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    return Digraph(n, edges_from_states(n, states))


@st.composite
def digraphs_with_edge(draw, min_n=2, max_n=8):
    """A digraph with at least one edge, plus one of its edges."""
    g = draw(digraphs(min_n=min_n, max_n=max_n).filter(lambda g: g.m > 0))
    e = draw(st.sampled_from(g.edges))
    return g, e


@st.composite
def strongly_connected_digraphs(draw, min_n=3, max_n=8):
    """Random digraph overlaid with a spanning directed cycle."""
    n = draw(st.integers(min_n, max_n))
    k = n * (n - 1) // 2
    states = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    pairs = list(combinations(range(n), 2))
    for j, (u, v) in enumerate(pairs):
        if v == u + 1:
            states[j] = 1  # u -> u+1
        elif (u, v) == (0, n - 1):
            states[j] = 2  # n-1 -> 0 closes the cycle
    return Digraph(n, edges_from_states(n, states))


@st.composite
def loop_free_row_batches(draw, max_n=8, max_batch=16):
    """Batches of packed out-rows (bit v of row u: u -> v), digons allowed."""
    n = draw(st.integers(1, max_n))
    rows = st.lists(st.integers(0, 255), min_size=n, max_size=n)
    batch = draw(st.lists(rows, min_size=1, max_size=max_batch))
    keep = [((1 << n) - 1) & ~(1 << u) for u in range(n)]
    return [[bits & mask for bits, mask in zip(row, keep)] for row in batch]


@st.composite
def digon_free_adjacency(draw, max_n=130):
    """(n, n) bool adjacency matrices of digon-free digraphs.

    Sizes include 1 and both sides of the 64- and 128-bit word boundaries;
    densities run from the empty graph to a tournament.  The pair states
    come from a drawn numpy seed, because n = 130 has 8,385 pairs.
    """
    n = draw(st.sampled_from([1, 2, 63, 64, 65, 128, 129, 130]) | st.integers(1, max_n))
    density = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = n * (n - 1) // 2
    states = np.where(rng.random(k) < density, rng.integers(1, 3, k), 0).tolist()
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges_from_states(n, states):
        adj[u, v] = True
    # the reverse of a digon-free graph is one too; .T is a non-contiguous view
    return adj.T if draw(st.booleans()) else adj


@st.composite
def loop_free_adjacency_batches(draw, max_n=130, max_batch=3):
    """Batches of (n, n) bool matrices without loops, digons allowed.

    Sizes include 1 and both sides of the 64- and 128-bit word boundaries;
    each matrix has its own density, from empty to complete symmetric.
    """
    n = draw(st.sampled_from([1, 2, 63, 64, 65, 128, 129, 130]) | st.integers(1, max_n))
    density = st.sampled_from([0.0, 0.05, 0.5, 1.0]) | st.floats(0.0, 1.0)
    densities = draw(st.lists(density, min_size=1, max_size=max_batch))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = rng.random((len(densities), n, n)) < np.array(densities)[:, None, None]
    batch[:, np.arange(n), np.arange(n)] = False
    return batch
