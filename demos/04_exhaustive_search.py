"""Sweeping whole digraph spaces through the filter.

Each unordered vertex pair is absent, forward, or backward, so there are
3^(n(n-1)/2) labeled digon-free digraphs on n vertices: 729 at n=4, 59049
at n=5, about 14.3 million at n=6.  The search engine enumerates them in a
fixed order, checks for a satisfactory vertex in bulk, and books every
graph against the condition filter.  Most graphs need no second-neighbourhood
work at all: a digon-free graph with a vertex of out-degree at most 1 always
has a satisfactory vertex, so the kernel sets them aside by out-degree alone.
"""
import time

from seymour import SearchSpec, run_search, space_size

for n in (2, 3, 4, 5, 6):
    report = run_search(SearchSpec(mode="exhaustive", n=n))
    print(
        f"n={n}: {report.graphs_examined:>8} graphs in {report.elapsed_seconds:6.3f}s, "
        f"counterexamples={report.counterexamples_found}, "
        f"survivors={len(report.filter_survivors)}"
    )

# every graph so far died at condition 0: it had a satisfactory vertex
print(f"\nrejection histogram at n=6: {report.per_condition_rejections}")
print(f"space size at n=7 (seymour search --ceiling 7): {space_size(7):,}")

# Random models scale further out.  Tournaments are the classic proven
# case; a thousand 50-vertex samples land on the proven side every time.
started = time.perf_counter()
report = run_search(
    SearchSpec(mode="random", n=50, model="tournament", count=1000, seed=7)
)
print(
    f"\n1000 random tournaments at n=50: counterexamples="
    f"{report.counterexamples_found} ({time.perf_counter() - started:.2f}s)"
)

# Seeds pin everything: the same spec always produces the same report.
again = run_search(SearchSpec(mode="random", n=50, model="tournament", count=1000, seed=7))
print(f"rerun identical: {report.per_condition_rejections == again.per_condition_rejections}")
