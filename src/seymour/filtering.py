"""Necessary-condition filter for minimal conjecture counterexamples.

A minimal counterexample (fewest edges, then fewest vertices, among all
digraphs with no satisfactory vertex) must pass every check below.  The
checks are necessary conditions only: a verdict never certifies
membership, it can only rule graphs out.  Each failure carries a concrete
witness that can be replayed against the graph.

Condition indices:

  0  no satisfactory vertex (the counterexample prerequisite)
  1  strongly connected
  2  every vertex has anti-satisfaction 1 or 2
  3  every edge (u,v): paths of length 1 or 2 from u avoiding the edge
     cover all but at most one of {v} ∪ N1(v)
  4  every edge is the base of a transitive triangle or a 2-directed diamond
  5  every edge (u,v) with |N1(u)| <= |N1(v)| is the base of at least
     |N1(v)| - |N1(u)| + 1 transitive triangles and as many diamond apexes
  6  every vertex has an in-neighbor with anti-satisfaction exactly 1
  7  the vertices with anti-satisfaction exactly 1 induce a directed cycle

Evaluation order is fixed (cheap per-vertex scans first, per-edge path
checks last) so reports are reproducible.

The checks share per-graph facts (_Facts): anti-satisfaction, and the first
failing edge of conditions 3-5.  One pass of float32 matrix products, exact as every count
is below n <= digraph.MAX_VERTICES < 2^24, over blocks of tails gives them (_block_pass).
Its float32 operands stay within a few _BLOCK_CELLS, but the bool unpack of a block's rows
takes |U| * span(C) bytes: over 230 MiB at n = 2^17 with 2,048 random edges (ROADMAP.md item 16).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property, reduce
from operator import or_
from typing import Any

import numpy as np

from .digraph import Digraph, Edge, _bits, _two_walks
from .errors import ConditionOutOfRange
from .structure import (
    diamond_base_targets,
    has_directed_cycle,
    is_strongly_connected,
    triangle_base_count,
)

#: Fixed evaluation order used by run_filter and the search engine.
EVALUATION_ORDER: tuple[int, ...] = (0, 2, 1, 6, 7, 4, 3, 5)

CONDITION_COUNT = 8

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of one condition: pass, fail (with witness), or not-applicable.

    not-applicable marks an empty quantification domain (e.g. condition 5
    on a graph with no applicable edge) and counts as a pass.
    """

    condition: int
    status: str
    witness: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class FilterReport:
    """Verdicts in evaluation order plus the aggregate survival flag."""

    verdicts: list[ConditionVerdict]
    survived: bool
    evaluation_order: list[int] = field(default_factory=list)

    @property
    def first_failure(self) -> ConditionVerdict | None:
        return next((v for v in self.verdicts if v.status == FAIL), None)

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


def avoiding_reach(g: Digraph, edge: Edge) -> tuple[set[int], set[int]]:
    """Split {v} ∪ N1(v) by reachability from u without traversing (u,v).

    Walks of length 1 or 2 are allowed; only the edge (u,v) itself is
    barred, intermediate vertices are unrestricted.  A 2-walk u -> a -> w uses
    (u,v) iff a = v, so w in N1(v) is reached iff at least two 2-walks end
    there, and v (never its own midpoint) iff one does.  Returns
    (covered, missing); the two sets partition {v} ∪ N1(v).
    """
    u, v = g._require_edge(edge)
    (once, twice), bit = _two_walks(g._out, u), 1 << v
    targets = g._out[v] | bit
    missing = targets & ~((g._out[u] & ~bit) | twice | (once & bit))
    return set(_bits(targets & ~missing)), set(_bits(missing))


#: Cells of the float operands the block pass holds at once: a block of tails
#: times the columns its 2-walks reach, and a chunk of heads times the same.
_BLOCK_CELLS = 1 << 15


#: condition -> its first failing edge (u, v)
_Found = dict[int, Edge]


class _Facts:
    """Per-graph facts the checks share, each computed on first use: every
    vertex's anti-satisfaction (0, 2, 6, 7), the bitmask of the anti-1
    vertices (6, 7), and ``edges``: the first failing edge of 3, 4 and 5 in
    sorted order and whether 5 applies to any edge.  One _block_pass gives
    anti-satisfaction alone, or with ``edges``, everything."""

    def __init__(self, g: Digraph):
        self.g = g

    @cached_property
    def anti(self) -> list[int]:
        return _block_pass(self.g, edges=False)[0]

    @cached_property
    def edges(self) -> tuple[_Found, bool]:
        self.anti, edges = _block_pass(self.g, edges=True)
        return edges

    @cached_property
    def ones(self) -> int:
        return sum(1 << u for u, a in enumerate(self.anti) if a == 1)


def _block_pass(g: Digraph, edges: bool) -> tuple[list[int], tuple[_Found, bool]]:
    """Anti-satisfaction and the edge facts of _Facts from exact block products.

    The tails go in consecutive blocks U.  With H the heads of U's edges, C
    the columns H plus H's heads, A the out-rows of U and B those of H, both
    on C, the 2-walk counts of U are A[:, H] @ B: W1 is count >= 1, W2 count
    >= 2.  Then [A; W2; A | W2] @ B.T holds, for each edge (u,v) out of U,
    its triangle bases |N1(u) ∩ N1(v)|, its diamond apexes |N1(v) ∩ W2[u]|
    and condition 3's cover |N1(v) ∩ (N1(u) ∪ W2[u])|.  The products, in
    float32, are exact.  A block is the longest run of tails with
    |U| * |C| at most _BLOCK_CELLS (_next_block), and H goes in chunks of as
    many cells, so the pass holds a few _BLOCK_CELLS floats.  Without
    ``edges``, and after the first failures of 3, 4 and 5, a block makes
    only the 2-walk product."""
    anti: list[int] = []
    first: _Found = {}
    applicable, start = False, 0
    while start < g.n:
        tails, heads, cols = _next_block(g, start)
        at = _ascending(heads)  # unpacked once when C is H, as in every one-block graph
        part, applies = _block(g, tails, at, at if cols == heads else _ascending(cols), first, edges)
        anti += part
        applicable |= applies
        start = tails.stop
    return anti, (first, applicable)


def _next_block(g: Digraph, start: int) -> tuple[range, int, int]:
    """The longest run U of tails from ``start`` with |U| * |C| at most
    _BLOCK_CELLS, one tail at least, and the masks of its H and C.  From 0, a graph
    with n * |every head| within the bound is one block, found without growth: with
    U = V, H and C are every head, and |U| * |C| only grows along a run."""
    out, stop, heads, cols = g._out, start, 0, 0
    if not start and g.n * (every := reduce(or_, out, 0)).bit_count() <= _BLOCK_CELLS:
        return range(g.n), every, every
    while stop < g.n:
        row = out[stop]
        grown, new = cols | row, row & ~heads
        while new:  # add each new head's out-row
            low = new & -new
            grown |= out[low.bit_length() - 1]
            new ^= low
        if stop > start and (stop + 1 - start) * grown.bit_count() > _BLOCK_CELLS:
            break
        heads, cols, stop = heads | row, grown, stop + 1
    return range(start, stop), heads, cols


def _ascending(mask: int) -> np.ndarray:
    """The set bit positions of mask, ascending."""
    packed = np.frombuffer(mask.to_bytes(-(-mask.bit_length() // 8), "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(packed, bitorder="little"))


def _block(
    g: Digraph, tails: range, heads: np.ndarray, cols: np.ndarray, first: _Found, edges: bool
) -> tuple[list[int], bool]:
    """Return the tails' anti-satisfaction and, with ``edges``, whether 5
    applies to their edges, recording in ``first`` their first failures
    unless 3, 4 and 5 have all failed."""
    size, edges = len(tails), edges and len(first) < 3
    if not len(heads):
        return [0] * size, False
    step = max(1, _BLOCK_CELLS // len(cols))
    at = None if len(heads) == len(cols) else np.searchsorted(cols, heads)  # H's places in C
    chunks = [
        (heads[s : s + step], slice(s, s + step) if at is None else at[s : s + step])
        for s in range(0, len(heads), step)
    ]
    # A, W2, A | W2 and a row of ones
    stack = np.zeros((3 * size + 1 if edges else 2 * size, len(cols)), dtype=np.float32)
    rows, walks, either = stack[:size], stack[size : 2 * size], stack[2 * size : -1]
    rows[:] = g._adjacency(tails, cols)
    lone = None
    if len(chunks) == 1:  # unpacked once, or A when H is U: H ascends and U is a run
        same = len(heads) == size and heads[0] == tails[0] and heads[-1] == tails[-1]
        lone = rows if same else g._adjacency(heads, cols).astype(np.float32)

    def rows_of(chunk: np.ndarray) -> np.ndarray:
        return lone if lone is not None else g._adjacency(chunk, cols).astype(np.float32)

    for chunk, places in chunks:
        walks += rows[:, places] @ rows_of(chunk)
    degree = rows.sum(axis=1, keepdims=True)  # C holds every head of U: exact below 2^24
    # W1 is walks > 0, and W1 minus N1 is N2
    anti = (degree[:, 0] - np.add.reduce(walks > g.n * rows, axis=1)).astype(int).tolist()
    if not edges:
        return anti, False
    reached = walks > 0
    np.greater(walks, 1, out=walks)  # W2
    np.maximum(rows, walks, out=either)
    stack[-1] = 1
    applicable = False
    for chunk, places in chunks:
        counts = stack @ rows_of(chunk).T
        tri, apex, cover = counts[:-1].reshape(3, size, -1)
        head_degree = counts[-1]  # from the row of ones
        required = head_degree - degree + 1  # by condition 5, where positive
        bad = np.empty((4, size, len(chunk)), dtype=bool)
        # 3: [v not in W1[u]] + |N1(v)| - cover > 1; 4: no base; 5: too few
        np.less(cover + reached[:, places], head_degree, out=bad[0])
        np.less(tri + apex, 1, out=bad[1])
        np.less(np.minimum(tri, apex), required, out=bad[2])
        np.greater(required, 0, out=bad[3])
        bad &= rows[:, places] > 0
        flat = bad.reshape(4, -1)
        *hits, applies = flat.any(axis=1).tolist()
        applicable |= applies
        for k, hit, i in zip((3, 4, 5), hits, flat.argmax(axis=1).tolist()):
            if hit:
                u, v = divmod(i, len(chunk))
                found = (tails[u], int(chunk[v]))
                first[k] = min(first.get(k, found), found)
    return anti, applicable


def _check_no_satisfactory(g: Digraph, facts: _Facts) -> ConditionVerdict:
    for u, a in enumerate(facts.anti):
        if a <= 0:
            return ConditionVerdict(0, FAIL, {"vertex": u, "anti_satisfaction": a})
    return ConditionVerdict(0, PASS)


def _check_strongly_connected(g: Digraph, facts: _Facts) -> ConditionVerdict:
    if is_strongly_connected(g):
        return ConditionVerdict(1, PASS)
    # The lexicographically first unreachable ordered pair is the witness.
    u, reach = next((u, r) for u in range(g.n) if len(r := g.walkable_neighborhood(u)) < g.n)
    return ConditionVerdict(1, FAIL, {"source": u, "target": min(set(range(g.n)) - reach)})


def _check_anti_satisfaction_band(g: Digraph, facts: _Facts) -> ConditionVerdict:
    for u, a in enumerate(facts.anti):
        if a not in (1, 2):
            return ConditionVerdict(2, FAIL, {"vertex": u, "anti_satisfaction": a})
    return ConditionVerdict(2, PASS)


def _check_avoiding_paths(g: Digraph, facts: _Facts) -> ConditionVerdict:
    first = facts.edges[0]
    if 3 in first:
        u, v = first[3]
        missing = sorted(avoiding_reach(g, (u, v))[1])
        return ConditionVerdict(3, FAIL, {"edge": [u, v], "missing": missing})
    return ConditionVerdict(3, PASS if any(g._out) else NOT_APPLICABLE)


def _check_every_edge_is_base(g: Digraph, facts: _Facts) -> ConditionVerdict:
    first = facts.edges[0]
    if 4 in first:
        return ConditionVerdict(4, FAIL, {"edge": list(first[4])})
    return ConditionVerdict(4, PASS if any(g._out) else NOT_APPLICABLE)


def _check_base_multiplicity(g: Digraph, facts: _Facts) -> ConditionVerdict:
    first, applicable = facts.edges
    if 5 in first:
        u, v = first[5]
        witness = {
            "edge": [u, v],
            "required": g._out[v].bit_count() - g._out[u].bit_count() + 1,
            "triangle_bases": triangle_base_count(g, (u, v)),
            "diamond_apexes": len(diamond_base_targets(g, (u, v))),
        }
        return ConditionVerdict(5, FAIL, witness)
    return ConditionVerdict(5, PASS if applicable else NOT_APPLICABLE)


def _check_in_neighbor_band(g: Digraph, facts: _Facts) -> ConditionVerdict:
    for u in range(g.n):
        if not g._in[u] & facts.ones:
            return ConditionVerdict(6, FAIL, {"vertex": u})
    return ConditionVerdict(6, PASS)


def _check_band_cycle(g: Digraph, facts: _Facts) -> ConditionVerdict:
    ones = list(_bits(facts.ones))
    if ones and has_directed_cycle(g.induced_subgraph(ones)[0]):
        return ConditionVerdict(7, PASS)
    return ConditionVerdict(7, FAIL, {"vertices": ones})


_CHECKS = {
    0: _check_no_satisfactory,
    1: _check_strongly_connected,
    2: _check_anti_satisfaction_band,
    3: _check_avoiding_paths,
    4: _check_every_edge_is_base,
    5: _check_base_multiplicity,
    6: _check_in_neighbor_band,
    7: _check_band_cycle,
}


def check_condition(g: Digraph, k: int, facts: _Facts | None = None) -> ConditionVerdict:
    """Evaluate one condition; the verdict's witness explains any failure.

    ``facts`` carries the per-graph work run_filter shares between checks.
    """
    if k not in _CHECKS:
        raise ConditionOutOfRange(k)
    return _CHECKS[k](g, facts if facts is not None else _Facts(g))


def run_filter(g: Digraph, short_circuit: bool = True) -> FilterReport:
    """Run all conditions in the fixed order, optionally stopping early.

    A graph that survives all eight checks is a candidate minimal
    counterexample, nothing more.  With short_circuit the verdict list is
    truncated at the first failure; the survived flag is the same either
    way.
    """
    verdicts: list[ConditionVerdict] = []
    survived = True
    facts = _Facts(g)
    if not short_circuit:
        facts.edges  # every check runs: make the one pass that gives every fact
    for k in EVALUATION_ORDER:
        verdict = check_condition(g, k, facts)
        verdicts.append(verdict)
        if verdict.status == FAIL:
            survived = False
            if short_circuit:
                break
    return FilterReport(
        verdicts=verdicts,
        survived=survived,
        evaluation_order=[v.condition for v in verdicts],
    )
