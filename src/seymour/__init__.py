"""Second-neighborhood toolkit for digon-free digraphs.

Computes first/second out-neighborhood statistics, checks the necessary
conditions a minimal counterexample to Seymour's Second Neighborhood
Conjecture must satisfy, builds the counterexample-multiplying graph
product, and searches small digraph spaces exhaustively or at random.
"""
from .digraph import Digraph, NeighborhoodProfile
from .errors import DigraphError
from .filtering import (
    EVALUATION_ORDER,
    ConditionVerdict,
    FilterReport,
    avoiding_reach,
    check_condition,
    run_filter,
)
from .product import (
    ProductLabeling,
    build_product,
    is_valid_second_factor,
    predicted_profile,
)
from .search import (
    DEFAULT_CEILING,
    SearchReport,
    SearchSpec,
    enumerate_digon_free,
    graph_at_index,
    random_acyclic,
    random_digon_free,
    random_tournament,
    random_triangle_free,
    run_search,
    space_size,
)
from .structure import (
    diamond_base_targets,
    has_directed_cycle,
    is_strongly_connected,
    triangle_base_count,
)
from .textio import parse_digraph, write_digraph
from .version import __version__

__all__ = [
    "Digraph",
    "NeighborhoodProfile",
    "DigraphError",
    "EVALUATION_ORDER",
    "ConditionVerdict",
    "FilterReport",
    "avoiding_reach",
    "check_condition",
    "run_filter",
    "ProductLabeling",
    "build_product",
    "is_valid_second_factor",
    "predicted_profile",
    "DEFAULT_CEILING",
    "SearchReport",
    "SearchSpec",
    "enumerate_digon_free",
    "graph_at_index",
    "random_acyclic",
    "random_digon_free",
    "random_tournament",
    "random_triangle_free",
    "run_search",
    "space_size",
    "diamond_base_targets",
    "has_directed_cycle",
    "is_strongly_connected",
    "triangle_base_count",
    "parse_digraph",
    "write_digraph",
    "__version__",
]
