"""Replacing vertices with graph copies: the counterexample multiplier.

The product of D and H puts a copy of H at every vertex of D and expands
each D-edge into a complete one-way bipartite bundle between copies.  Its
neighborhood sizes follow from the factors in closed form, which is why a
single counterexample would spawn infinitely many strongly connected ones:
anti-satisfaction is additive under the product.
"""
from seymour import (
    Digraph,
    build_product,
    is_strongly_connected,
    is_valid_second_factor,
    predicted_profile,
)

c3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
c4 = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])

product, labeling = build_product(c4, c3)
print(f"C4 x C3: {product.n} vertices, {product.m} edges")

# The closed form: n1 = |N1_H(h)| + |V(H)|*|N1_D(d)|, same shape for n2.
# Compare it against BFS on the built product for every vertex.
agree = all(
    predicted_profile(c4, c3, d, h) == product.profile(pid) for pid, (d, h) in labeling.pairs()
)
print(f"closed-form profiles match measured BFS on all {product.n} vertices: {agree}")

pid = labeling.encode(2, 1)
p = product.profile(pid)
print(f"vertex (d=2, h=1) is product id {pid}: |N1|={p.n1}, |N2|={p.n2}")

# Any dicycle keeps every anti-satisfaction at zero, so it is a valid
# second factor; a vertex with negative anti-satisfaction is not.
lopsided = Digraph(4, [(0, 1), (1, 2), (1, 3)])
print(f"\nC3 valid second factor:      {is_valid_second_factor(c3)}")
print(f"lopsided valid second factor: {is_valid_second_factor(lopsided)}")

# Strong connectivity is inherited from the first factor (with >= 2
# vertices), whatever the second factor looks like.
product2, _ = build_product(c3, lopsided)
print(f"\nC3 x lopsided strongly connected: {is_strongly_connected(product2)}")

# Multiplying by bigger and bigger cycles gives arbitrarily large graphs
# with the same anti-satisfaction signature per copy.
for k in (3, 5, 7):
    ck = Digraph(k, [(i, (i + 1) % k) for i in range(k)])
    big, _ = build_product(c3, ck)
    print(f"C3 x C{k}: {big.n} vertices, all anti-satisfactions "
          f"{sorted({q.anti_satisfaction for q in big.profiles()})}")
