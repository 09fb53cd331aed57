"""Counterexample-multiplying product of two digraphs.

Every vertex of the first factor D is replaced by a copy of the second
factor H; each D-edge (d1, d2) becomes the complete one-way bipartite
connection from copy d1 to copy d2.  First and second neighborhood sizes
of any product vertex follow in closed form from the factor profiles, so
anti-satisfaction is additive: a strongly connected graph without
satisfactory vertices times any factor whose vertices all have
nonnegative anti-satisfaction is again such a graph, on more vertices.

build_product writes each row from the factors' bit rows, never an (n, n)
matrix, and first refuses, by ``digraph._check_size``, a product the parser would refuse.
"""
from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph, NeighborhoodProfile, Rows, _check_size
from .errors import VertexOutOfRange


@dataclass(frozen=True)
class ProductLabeling:
    """Row-major bijection between factor pairs and product vertex ids.

    encode(d, h) = d * h_count + h; decode is its inverse.  The layout is
    fixed so product graphs serialize reproducibly.
    """

    d_count: int
    h_count: int

    def encode(self, d: int, h: int) -> int:
        if not 0 <= d < self.d_count:
            raise VertexOutOfRange(d, self.d_count)
        if not 0 <= h < self.h_count:
            raise VertexOutOfRange(h, self.h_count)
        return d * self.h_count + h

    def decode(self, product_vertex: int) -> tuple[int, int]:
        total = self.d_count * self.h_count
        if not 0 <= product_vertex < total:
            raise VertexOutOfRange(product_vertex, total)
        return divmod(product_vertex, self.h_count)

    def pairs(self):
        """All (product id, (d, h)) pairs in id order."""
        for pid in range(self.d_count * self.h_count):
            yield pid, divmod(pid, self.h_count)


def is_valid_second_factor(h: Digraph) -> bool:
    """True iff every vertex of h has nonnegative anti-satisfaction.

    Any directed cycle qualifies, so valid second factors exist on every
    vertex count >= 3.
    """
    return all(p.anti_satisfaction >= 0 for p in h.profiles())


def build_product(d_graph: Digraph, h_graph: Digraph) -> tuple[Digraph, ProductLabeling]:
    """The product graph on |V(D)| * |V(H)| vertices plus its labeling.

    Accepts any digon-free factors; whether they meet the counterexample
    hypotheses is the caller's concern.  The result is always loop-free and
    digon-free: a digon inside a copy would need one in H, a digon between
    copies would need one in D.  More than digraph.MAX_VERTICES product
    vertices raise TooManyVertices, and then min(n, m) * n > MAX_ROW_BITS
    raises RowsTooLarge, as the parser would on the product's document.
    """
    nd, nh = d_graph.n, h_graph.n
    _check_size(nd * nh, d_graph.m * nh * nh + nd * h_graph.m)  # the product's n and m
    out, inn = _rows(d_graph._out, h_graph._out, nh), _rows(d_graph._in, h_graph._in, nh)
    return Digraph._from_rows(out, inn), ProductLabeling(d_count=nd, h_count=nh)


def _rows(d_rows: Rows, h_rows: Rows, nh: int) -> Rows:
    """Row (d, h) of the product: a full copy of H for each D-neighbor of d,
    OR h's row of H in copy d.  Each bit of d's row, in binary, is spread to
    nh equal bits."""
    spread = {ord("0"): "0" * nh, ord("1"): "1" * nh}
    copies = (int(f"{row:b}".translate(spread), 2) for row in d_rows)
    return tuple(full | h_row << d * nh for d, full in enumerate(copies) for h_row in h_rows)


def predicted_profile(
    d_graph: Digraph, h_graph: Digraph, d: int, h: int
) -> NeighborhoodProfile:
    """The profile of product vertex (d, h), id d * |V(H)| + h as
    ProductLabeling.encode gives it, from the factors' profiles alone.

    n1 = |N1_H(h)| + |V(H)| * |N1_D(d)| and likewise for n2: within its own
    copy the vertex sees h's neighborhoods, and every D-neighbor of d
    contributes a full copy of H at the same distance.
    """
    dp = d_graph.profile(d)
    hp = h_graph.profile(h)
    return NeighborhoodProfile(
        d * h_graph.n + h,
        n1=hp.n1 + h_graph.n * dp.n1,
        n2=hp.n2 + h_graph.n * dp.n2,
    )
