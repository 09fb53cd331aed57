"""Naive reference implementations used as independent test oracles.

Everything here works from (n, edge list) alone with dict/set bookkeeping
and explicit walk enumeration (the product's Kronecker matrices aside),
deliberately sharing no code with the package so the two sides can disagree.
The one exception is the writer, which reads a graph's edges as the package does.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, deque

import numpy as np

from seymour.errors import (
    CountMismatch,
    DigonPair,
    DuplicateEdge,
    EmptyVertexSet,
    GraphSyntaxError,
    LoopEdge,
    RowsTooLarge,
    TooManyVertices,
    VertexOutOfRange,
)

INF = math.inf


def adjacency(n, edges):
    out = {u: set() for u in range(n)}
    inn = {u: set() for u in range(n)}
    for u, v in edges:
        out[u].add(v)
        inn[v].add(u)
    return out, inn


def bfs_distances(n, out, source):
    dist = {v: INF for v in range(n)}
    dist[source] = 0
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in out[x]:
            if dist[y] == INF:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def layer(n, edges, source, k, direction="out"):
    out, inn = adjacency(n, edges)
    rows = out if direction == "out" else inn
    dist = bfs_distances(n, rows, source)
    return {v for v in range(n) if dist[v] == k}


def profile_sizes(n, edges):
    """[(|N1|, |N2|)] per vertex, from full BFS distances."""
    out, _ = adjacency(n, edges)
    result = []
    for u in range(n):
        dist = bfs_distances(n, out, u)
        n1 = sum(1 for v in range(n) if dist[v] == 1)
        n2 = sum(1 for v in range(n) if dist[v] == 2)
        result.append((n1, n2))
    return result


def has_satisfactory_vertex(n, edges):
    return any(n1 <= n2 for n1, n2 in profile_sizes(n, edges))


def min_out_degree(n, edges):
    out, _ = adjacency(n, edges)
    return min(len(out[u]) for u in range(n))


def min_out_degree_vertex(n, edges):
    out, _ = adjacency(n, edges)
    return min(range(n), key=lambda u: (len(out[u]), u))


def strongly_connected(n, edges):
    out, _ = adjacency(n, edges)
    return all(
        bfs_distances(n, out, u)[v] != INF for u in range(n) for v in range(n)
    )


def has_cycle(n, edges):
    out, _ = adjacency(n, edges)
    color = {v: 0 for v in range(n)}

    def visit(x):
        color[x] = 1
        for y in out[x]:
            if color[y] == 1 or (color[y] == 0 and visit(y)):
                return True
        color[x] = 2
        return False

    return any(color[v] == 0 and visit(v) for v in range(n))


@functools.lru_cache(maxsize=4)
def _edge_index(n, edges):
    """(edge set, out-neighbor sets) of an edge tuple.  Cached because the
    verdict oracles below ask once per edge of graphs with thousands of edges."""
    out, _ = adjacency(n, edges)
    return frozenset(edges), {u: frozenset(heads) for u, heads in out.items()}


def triangle_bases(n, edges, e):
    u, v = e
    edge_set, _ = _edge_index(n, tuple(edges))
    return {w for w in range(n) if (u, w) in edge_set and (v, w) in edge_set}


def has_transitive_triangle(n, edges):
    return any(triangle_bases(n, edges, e) for e in edges)


def diamond_apexes(n, edges, e):
    """Apexes by brute force over the ordered 4-tuples (t, u, v, w) whose
    v is a head of t and w a head of u."""
    t, u = e
    edge_set, out = _edge_index(n, tuple(edges))
    apexes = set()
    for w in out[u]:
        for v in out[t]:
            if len({t, u, v, w}) != 4:
                continue
            if {(t, u), (u, w), (t, v), (v, w)} <= edge_set:
                apexes.add(w)
    return apexes


def avoiding_reach(n, edges, e):
    """(covered, missing) via explicit enumeration of walks skipping e."""
    u, v = e
    _, out = _edge_index(n, tuple(edges))
    targets = {v} | out[v]
    reached = set()
    for b in out[u]:
        if (u, b) != e:
            reached.add(b)
    for a in out[u]:
        if (u, a) == e:
            continue
        for b in out[a]:
            if (a, b) != e:
                reached.add(b)
    return targets & reached, targets - reached


def _edges_from_states(pairs, states):
    edges = []
    for (u, v), s in zip(pairs, states):
        if s == 1:
            edges.append((u, v))
        elif s == 2:
            edges.append((v, u))
    return edges


def all_digon_free_edge_lists(n):
    """Every labeled digon-free digraph on n vertices, lexicographic order."""
    pairs = list(itertools.combinations(range(n), 2))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        yield _edges_from_states(pairs, states)


def digon_free_edges_at(n, index):
    """The edge list at position index of all_digon_free_edge_lists(n)."""
    pairs = list(itertools.combinations(range(n), 2))
    digits = []
    for _ in pairs:
        index, digit = divmod(index, 3)
        digits.append(digit)
    return _edges_from_states(pairs, reversed(digits))


def count_min_out_degree(n, k):
    """The number of labeled digon-free digraphs on n vertices whose every
    vertex has out-degree >= k: a DP over the vertex pairs, one at a time,
    whose state is the out-degree vector capped at k."""
    counts = Counter({(0,) * n: 1})
    for pair in itertools.combinations(range(n), 2):
        step = Counter()
        for degrees, ways in counts.items():
            step[degrees] += ways  # the pair absent
            for tail in pair:  # or oriented out of either end
                raised = list(degrees)
                raised[tail] = min(k, raised[tail] + 1)
                step[tuple(raised)] += ways
        counts = step
    return counts[(k,) * n]


# -- the seven minimal-counterexample conditions, straight restatements -------


def cond0(n, edges):
    return not has_satisfactory_vertex(n, edges)


def cond1(n, edges):
    return strongly_connected(n, edges)


def cond2(n, edges):
    return all(n1 - n2 in (1, 2) for n1, n2 in profile_sizes(n, edges))


def cond3(n, edges):
    return all(len(avoiding_reach(n, edges, e)[1]) <= 1 for e in edges)


def cond4(n, edges):
    for e in edges:
        if not triangle_bases(n, edges, e) and not diamond_apexes(n, edges, e):
            return False
    return True


def cond5(n, edges):
    out, _ = adjacency(n, edges)
    for u, v in edges:
        if len(out[u]) > len(out[v]):
            continue
        required = len(out[v]) - len(out[u]) + 1
        if len(triangle_bases(n, edges, (u, v))) < required:
            return False
        if len(diamond_apexes(n, edges, (u, v))) < required:
            return False
    return True


def cond6(n, edges):
    _, inn = adjacency(n, edges)
    anti = [n1 - n2 for n1, n2 in profile_sizes(n, edges)]
    return all(any(anti[w] == 1 for w in inn[u]) for u in range(n))


def cond7(n, edges):
    anti = [n1 - n2 for n1, n2 in profile_sizes(n, edges)]
    ones = {v for v in range(n) if anti[v] == 1}
    sub_edges = [(u, v) for u, v in edges if u in ones and v in ones]
    relabel = {old: new for new, old in enumerate(sorted(ones))}
    return has_cycle(len(ones), [(relabel[u], relabel[v]) for u, v in sub_edges]) if ones else False


# -- check_condition(g, k).as_dict() for the edge conditions 3-5 -------------
# Edges are scanned in sorted order and the first failing edge is the witness.


def _verdict(k, status, witness=None):
    return {"condition": k, "status": status, "witness": witness}


def cond3_verdict(n, edges):
    if not edges:
        return _verdict(3, "not-applicable")
    for e in sorted(edges):
        missing = avoiding_reach(n, edges, e)[1]
        if len(missing) > 1:
            return _verdict(3, "fail", {"edge": list(e), "missing": sorted(missing)})
    return _verdict(3, "pass")


def cond4_verdict(n, edges):
    if not edges:
        return _verdict(4, "not-applicable")
    for e in sorted(edges):
        if not triangle_bases(n, edges, e) and not diamond_apexes(n, edges, e):
            return _verdict(4, "fail", {"edge": list(e)})
    return _verdict(4, "pass")


def cond5_verdict(n, edges):
    out, _ = adjacency(n, edges)
    applicable = False
    for u, v in sorted(edges):
        if len(out[u]) > len(out[v]):
            continue
        applicable = True
        required = len(out[v]) - len(out[u]) + 1
        triangles = len(triangle_bases(n, edges, (u, v)))
        apexes = len(diamond_apexes(n, edges, (u, v)))
        if triangles < required or apexes < required:
            witness = {
                "edge": [u, v],
                "required": required,
                "triangle_bases": triangles,
                "diamond_apexes": apexes,
            }
            return _verdict(5, "fail", witness)
    return _verdict(5, "pass" if applicable else "not-applicable")


EDGE_VERDICT_ORACLES = {3: cond3_verdict, 4: cond4_verdict, 5: cond5_verdict}


CONDITION_ORACLES = {
    0: cond0,
    1: cond1,
    2: cond2,
    3: cond3,
    4: cond4,
    5: cond5,
    6: cond6,
    7: cond7,
}


def product_rows(nd, d_edges, nh, h_edges):
    """(out-rows, in-rows) of the product D x H from its (nd * nh)^2 Kronecker
    matrix: kron(A_D, J_nh) joins all of copy d1 to all of copy d2 for each
    D-edge (d1, d2), and kron(I_nd, A_H) puts H in each copy."""
    a_d, a_h = np.zeros((nd, nd), dtype=bool), np.zeros((nh, nh), dtype=bool)
    for a, edges in ((a_d, d_edges), (a_h, h_edges)):
        for u, v in edges:
            a[u, v] = True
    adj = np.kron(a_d, np.ones((nh, nh), dtype=bool)) | np.kron(np.eye(nd, dtype=bool), a_h)

    def rows(matrix):
        return tuple(sum(1 << int(v) for v in np.flatnonzero(row)) for row in matrix)

    return rows(adj), rows(adj.T)


def write_digraph(g):
    """g's document, each edge line formatted by Python's ``%`` operator.  It
    reads the edges off the package's own edge reader, so it checks only the
    formatting."""
    tails, heads = g._edge_arrays()
    flat = np.column_stack((tails, heads)).ravel()  # tail, head, tail, head, ...
    return f"{g.n} {len(tails)}\n" + "%d %d\n" * len(tails) % tuple(flat.tolist())


# -- the edge check and the parser, one edge and one line at a time -----------
# These raise the package's error types, so their errors compare with its own;
# the rows are int bitsets (bit v of row u: edge u -> v), as Digraph keeps them.


def add_edge(out, inn, u, v, line=None):
    """Check edge (u, v) against the rows built so far, then add it to them."""
    n = len(out)
    if not 0 <= u < n:
        raise VertexOutOfRange(u, n, line=line)
    if not 0 <= v < n:
        raise VertexOutOfRange(v, n, line=line)
    if u == v:
        raise LoopEdge(u, line=line)
    if out[u] >> v & 1:
        raise DuplicateEdge(u, v, line=line)
    if out[v] >> u & 1:
        raise DigonPair(u, v, line=line)
    out[u] |= 1 << v
    inn[v] |= 1 << u


def digraph_parts(n, edges):
    """(edges, out-rows, in-rows) of Digraph(n, edges): the edges are checked
    in sorted order, so the first bad one in that order is reported."""
    ordered = sorted(tuple(e) for e in edges)
    out, inn = [0] * n, [0] * n
    for u, v in ordered:
        add_edge(out, inn, u, v)
    return tuple(ordered), tuple(out), tuple(inn)


def _two_ints(lineno, content, what):
    tokens = content.split()
    try:
        if len(tokens) == 2:
            return int(tokens[0]), int(tokens[1])
    except ValueError:
        pass
    raise GraphSyntaxError(lineno, f"expected two integers ({what}), got {content!r}")


def parse_reference(text, max_vertices, max_row_bits):
    """(edges, out-rows, in-rows) of a graph document, line by line: every
    error of parse_digraph, with its line, in the same order."""
    lines = []
    for lineno, raw in enumerate(text.split("\n"), 1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((lineno, stripped))
    if not lines:
        raise GraphSyntaxError(1, "missing 'n m' header")
    header_line, header = lines[0]
    n, m = _two_ints(header_line, header, "vertex and edge count")
    if n < 1:
        raise EmptyVertexSet(line=header_line)
    if n > max_vertices:
        raise TooManyVertices(n, max_vertices, line=header_line)
    if m < 0:
        raise GraphSyntaxError(header_line, f"negative edge count {m}")
    edge_lines = lines[1:]
    if len(edge_lines) != m:
        raise CountMismatch(m, len(edge_lines))
    if min(n, m) * n > max_row_bits:  # at most min(n, m) rows hold a bit, each below bit n
        raise RowsTooLarge(min(n, m) * n, max_row_bits, line=header_line)
    edges = []
    out, inn = [0] * n, [0] * n
    for lineno, content in edge_lines:
        u, v = _two_ints(lineno, content, "edge tail and head")
        add_edge(out, inn, u, v, line=lineno)
        edges.append((u, v))
    return tuple(sorted(edges)), tuple(out), tuple(inn)
