"""Matrices associated with a graph.

This module realizes the matrix menagerie of Section 3.1 of the paper:

* adjacency matrix ``A``,
* diagonal degree matrix ``D`` with ``D_ii = sum_j A_ij``,
* combinatorial Laplacian ``L = D - A``,
* normalized Laplacian ``𝓛 = D^{-1/2} L D^{-1/2} = I - D^{-1/2} A D^{-1/2}``,
* natural random-walk transition matrix ``M = A D^{-1}`` (column-stochastic,
  matching Equation (2) of the paper),
* lazy random-walk matrix ``W_α = α I + (1 - α) M``.

All functions return ``scipy.sparse.csr_matrix`` (or a dense vector for the
degree data) so that matrix–vector products preserve sparsity, which is the
property the paper highlights as making the Power Method Web-scale friendly.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro._validation import check_probability
from repro.exceptions import GraphError


def adjacency_matrix(graph):
    """Sparse CSR adjacency matrix ``A`` of the graph."""
    n = graph.num_nodes
    return sparse.csr_matrix(
        (graph.weights.copy(), graph.indices.copy(), graph.indptr.copy()),
        shape=(n, n),
    )


def degree_matrix(graph):
    """Sparse diagonal degree matrix ``D``."""
    return sparse.diags(graph.degrees, format="csr")


def combinatorial_laplacian(graph):
    """Combinatorial Laplacian ``L = D - A`` (sparse CSR)."""
    return (degree_matrix(graph) - adjacency_matrix(graph)).tocsr()


def normalized_laplacian(graph):
    """Normalized Laplacian ``𝓛 = I - D^{-1/2} A D^{-1/2}`` (sparse CSR).

    Raises :class:`GraphError` if the graph has an isolated (zero-degree)
    node, for which the normalization is undefined.
    """
    d = graph.degrees
    if np.any(d <= 0):
        raise GraphError("normalized Laplacian requires all degrees positive")
    inv_sqrt = sparse.diags(1.0 / np.sqrt(d), format="csr")
    n = graph.num_nodes
    identity = sparse.identity(n, format="csr")
    return (identity - inv_sqrt @ adjacency_matrix(graph) @ inv_sqrt).tocsr()


def random_walk_matrix(graph):
    """Natural random-walk matrix ``M = A D^{-1}`` (column-stochastic).

    Column ``j`` holds the transition probabilities out of node ``j``; this
    matches Equation (2) of the paper, where the charge vector is multiplied
    on the left by ``M``.
    """
    d = graph.degrees
    if np.any(d <= 0):
        raise GraphError("random-walk matrix requires all degrees positive")
    inv = sparse.diags(1.0 / d, format="csr")
    return (adjacency_matrix(graph) @ inv).tocsr()


def lazy_walk_matrix(graph, alpha=0.5):
    """Lazy random-walk matrix ``W_α = α I + (1 - α) M``.

    ``alpha`` is the holding probability, in ``(0, 1)``; the paper's Section
    3.1 introduces this as the third canonical diffusion dynamics.
    """
    alpha = check_probability(alpha, "alpha")
    n = graph.num_nodes
    return (
        alpha * sparse.identity(n, format="csr")
        + (1.0 - alpha) * random_walk_matrix(graph)
    ).tocsr()


def trivial_eigenvector(graph):
    """Degree-weighted all-ones vector ``v1 = D^{1/2} 1 / ||D^{1/2} 1||``.

    This is the trivial eigenvector of the normalized Laplacian (eigenvalue
    zero); every nontrivial spectral computation in the library deflates
    against it, implementing the ``x^T D^{1/2} 1 = 0`` constraint of
    Problem (3).
    """
    d = graph.degrees
    if np.any(d <= 0):
        raise GraphError("trivial eigenvector requires all degrees positive")
    v = np.sqrt(d)
    return v / np.linalg.norm(v)


def rayleigh_quotient(matrix, vector):
    """Rayleigh quotient ``x^T M x / x^T x`` for a symmetric operator."""
    vector = np.asarray(vector, dtype=float)
    denom = float(vector @ vector)
    if denom == 0.0:
        raise GraphError("Rayleigh quotient of the zero vector is undefined")
    return float(vector @ (matrix @ vector)) / denom


def laplacian_quadratic_form(graph, vector):
    """Evaluate ``x^T L x = sum_{(u,v) in E} w_uv (x_u - x_v)^2`` directly.

    Computed edge-by-edge (not via the matrix) so it can serve as an
    independent oracle in tests.
    """
    x = np.asarray(vector, dtype=float)
    if x.shape != (graph.num_nodes,):
        raise GraphError(
            f"vector must have shape ({graph.num_nodes},); got {x.shape}"
        )
    us, vs, ws = graph.edge_array()
    if us.size == 0:
        return 0.0
    diff = x[us] - x[vs]
    return float(np.sum(ws * diff * diff))
