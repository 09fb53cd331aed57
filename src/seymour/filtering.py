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
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from .digraph import Digraph, Edge, _bits
from .errors import ConditionOutOfRange
from .structure import (  # noqa: F401  (re-exported: callers look the counters up here)
    _two_walks,
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


def _missing(g: Digraph, edge: Edge, walks: tuple[int, int]) -> int:
    """{v} ∪ N1(v) minus what u reaches avoiding ``edge`` = (u,v), given u's two-walk masks.

    A 2-walk u -> a -> w uses (u,v) iff a = v, so w in N1(v) is reached iff at
    least two 2-walks end there, and v (never its own midpoint) iff one does."""
    u, v = edge
    once, twice = walks
    bit = 1 << v
    return (g._out[v] | bit) & ~((g._out[u] & ~bit) | twice | (once & bit))


def avoiding_reach(g: Digraph, edge: Edge) -> tuple[set[int], set[int]]:
    """Split {v} ∪ N1(v) by reachability from u without traversing (u,v).

    Walks of length 1 or 2 are allowed; only the edge (u,v) itself is
    barred, intermediate vertices are unrestricted.  Returns
    (covered, missing); the two sets partition {v} ∪ N1(v).
    """
    u, v = g._require_edge(edge)
    missing = _missing(g, (u, v), _two_walks(g._out, ((u, a) for a in _bits(g._out[u])))[u])
    return set(_bits((g._out[v] | 1 << v) & ~missing)), set(_bits(missing))


class _Facts:
    """Per-graph facts the checks share, from one pass over the sorted edges,
    computed up front: every vertex's two-walk masks from ``_two_walks``
    (conditions 3, 4, 5; O(m) bitset ORs once, so those conditions cost O(1)
    per edge) and its anti-satisfaction (0, 2, 6, 7), read off W1.  Without
    loops or digons W1[u] minus N1(u) is N2(u)."""

    def __init__(self, g: Digraph):
        self.walks = _two_walks(g._out, g.edges)
        self.anti = [
            row.bit_count() - (once & ~row).bit_count()
            for row, (once, _) in zip(g._out, self.walks)
        ]


def _check_no_satisfactory(g: Digraph, facts: _Facts) -> ConditionVerdict:
    for u, a in enumerate(facts.anti):
        if a <= 0:
            return ConditionVerdict(0, FAIL, {"vertex": u, "anti_satisfaction": a})
    return ConditionVerdict(0, PASS)


def _check_strongly_connected(g: Digraph, facts: _Facts) -> ConditionVerdict:
    if is_strongly_connected(g):
        return ConditionVerdict(1, PASS)
    # Find the lexicographically first unreachable ordered pair as witness.
    for u in range(g.n):
        reach = g.walkable_neighborhood(u)
        for v in range(g.n):
            if v not in reach:
                return ConditionVerdict(1, FAIL, {"source": u, "target": v})
    raise AssertionError("unreachable: connectivity check disagreed with itself")


def _check_anti_satisfaction_band(g: Digraph, facts: _Facts) -> ConditionVerdict:
    for u, a in enumerate(facts.anti):
        if a not in (1, 2):
            return ConditionVerdict(2, FAIL, {"vertex": u, "anti_satisfaction": a})
    return ConditionVerdict(2, PASS)


def _check_avoiding_paths(g: Digraph, facts: _Facts) -> ConditionVerdict:
    for e in g.edges:
        missing = _missing(g, e, facts.walks[e[0]])
        if missing.bit_count() > 1:
            witness = {"edge": list(e), "missing": list(_bits(missing))}
            return ConditionVerdict(3, FAIL, witness)
    return ConditionVerdict(3, PASS if g.edges else NOT_APPLICABLE)


def _check_every_edge_is_base(g: Digraph, facts: _Facts) -> ConditionVerdict:
    for u, v in g.edges:
        if not g._out[u] & g._out[v] and not g._out[v] & facts.walks[u][1]:
            return ConditionVerdict(4, FAIL, {"edge": [u, v]})
    return ConditionVerdict(4, PASS if g.edges else NOT_APPLICABLE)


def _check_base_multiplicity(g: Digraph, facts: _Facts) -> ConditionVerdict:
    applicable = False
    degree = [row.bit_count() for row in g._out]
    for u, v in g.edges:
        if degree[u] > degree[v]:
            continue
        applicable = True
        required = degree[v] - degree[u] + 1
        triangles = (g._out[u] & g._out[v]).bit_count()
        apexes = (g._out[v] & facts.walks[u][1]).bit_count()
        if triangles < required or apexes < required:
            witness = {
                "edge": [u, v],
                "required": required,
                "triangle_bases": triangles,
                "diamond_apexes": apexes,
            }
            return ConditionVerdict(5, FAIL, witness)
    if not applicable:
        return ConditionVerdict(5, NOT_APPLICABLE)
    return ConditionVerdict(5, PASS)


def _check_in_neighbor_band(g: Digraph, facts: _Facts) -> ConditionVerdict:
    anti = facts.anti
    for u in range(g.n):
        if not any(anti[w] == 1 for w in _bits(g._in[u])):
            return ConditionVerdict(6, FAIL, {"vertex": u})
    return ConditionVerdict(6, PASS)


def _check_band_cycle(g: Digraph, facts: _Facts) -> ConditionVerdict:
    ones = [u for u, a in enumerate(facts.anti) if a == 1]
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
