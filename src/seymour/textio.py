"""Bit-exact text format for digraphs.

A document is a header line ``n m`` followed by exactly m edge lines
``u v`` (0-indexed, tail then head).  Lines starting with ``#`` and blank
lines are ignored; the newline is a single line feed.  Writing emits edges
in canonical sorted order, so parse(write(g)) reproduces g exactly and
equal graphs serialize to identical bytes.

Parse errors carry the 1-based line number of the offending input line.
"""
from __future__ import annotations

from .digraph import Digraph, _add_edge
from .errors import CountMismatch, EmptyVertexSet, GraphSyntaxError


def _significant_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.split("\n"), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((lineno, stripped))
    return out


def _two_ints(lineno: int, content: str, what: str) -> tuple[int, int]:
    tokens = content.split()
    try:
        if len(tokens) == 2:
            return int(tokens[0]), int(tokens[1])
    except ValueError:
        pass
    raise GraphSyntaxError(lineno, f"expected two integers ({what}), got {content!r}")


def parse_digraph(text: str) -> Digraph:
    """Parse a graph document; malformed input never yields a Digraph."""
    lines = _significant_lines(text)
    if not lines:
        raise GraphSyntaxError(1, "missing 'n m' header")
    header_line, header = lines[0]
    n, m = _two_ints(header_line, header, "vertex and edge count")
    if n < 1:
        raise EmptyVertexSet(line=header_line)
    if m < 0:
        raise GraphSyntaxError(header_line, f"negative edge count {m}")
    edge_lines = lines[1:]
    if len(edge_lines) != m:
        raise CountMismatch(m, len(edge_lines))
    edges: list[tuple[int, int]] = []
    out = [0] * n
    inn = [0] * n
    for lineno, content in edge_lines:
        u, v = _two_ints(lineno, content, "edge tail and head")
        _add_edge(out, inn, u, v, line=lineno)  # the first bad line is reported
        edges.append((u, v))
    # every edge was checked above, so skip the constructor's second pass
    return Digraph._from_parts(tuple(sorted(edges)), tuple(out), tuple(inn))


def write_digraph(g: Digraph) -> str:
    """Canonical document for g; deterministic bytes for equal graphs."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
