"""Counterexample-multiplying product of two digraphs.

Every vertex of the first factor D is replaced by a copy of the second
factor H; each D-edge (d1, d2) becomes the complete one-way bipartite
connection from copy d1 to copy d2.  First and second neighborhood sizes
of any product vertex follow in closed form from the factor profiles, so
anti-satisfaction is additive: a strongly connected graph without
satisfactory vertices times any factor whose vertices all have
nonnegative anti-satisfaction is again such a graph, on more vertices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .digraph import Digraph, NeighborhoodProfile
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
    copies would need one in D.
    """
    nd, nh = d_graph.n, h_graph.n
    # kron(A_D, J_h): a D-edge joins all of copy d1 to all of copy d2;
    # kron(I_d, A_H): each copy holds H
    adj = np.kron(d_graph._adjacency(), np.ones((nh, nh), dtype=bool))
    adj |= np.kron(np.eye(nd, dtype=bool), h_graph._adjacency())
    return Digraph._from_adjacency(adj), ProductLabeling(d_count=nd, h_count=nh)


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
