"""Graph substrate: data structure, builders, matrices, generators, I/O."""

from repro.graph.build import (
    connected_component_labels,
    empty_graph,
    from_edges,
    induced_subgraph_fast,
    largest_component_fast,
    union_disjoint,
)
from repro.graph.graph import Graph
from repro.graph.storage import (
    peek_binary_header,
    read_binary,
    write_binary,
)
from repro.graph.matrices import (
    adjacency_matrix,
    combinatorial_laplacian,
    degree_matrix,
    laplacian_quadratic_form,
    lazy_walk_matrix,
    normalized_laplacian,
    random_walk_matrix,
    rayleigh_quotient,
    trivial_eigenvector,
)

__all__ = [
    "Graph",
    "connected_component_labels",
    "empty_graph",
    "from_edges",
    "induced_subgraph_fast",
    "largest_component_fast",
    "peek_binary_header",
    "read_binary",
    "union_disjoint",
    "write_binary",
    "adjacency_matrix",
    "combinatorial_laplacian",
    "degree_matrix",
    "laplacian_quadratic_form",
    "lazy_walk_matrix",
    "normalized_laplacian",
    "random_walk_matrix",
    "rayleigh_quotient",
    "trivial_eigenvector",
]
