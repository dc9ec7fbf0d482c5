"""PageRank diffusion: the resolvent ``R_γ = γ (I − (1−γ) M)^{−1}``.

This is the second canonical dynamics of Section 3.1 (Equation (2) of the
paper): "the charge evolves by either moving to a neighbor of the current
node or teleporting to a random node", with teleportation parameter
``γ ∈ (0, 1)`` and ``M = A D^{-1}`` the natural random-walk matrix.

Two computational routes, in increasing "approximateness":

* :func:`pagerank_exact` — solve the linear system through its SPD
  symmetrization (CG);
* the push algorithm lives in :mod:`repro.diffusion.push` (strongly local).

A lazy variant (walk matrix ``W_α = (I + M)/2``) is also provided because the
ACL push algorithm's guarantee is stated for lazy walks; the two resolvents
are related by a reparameterization of the teleport parameter implemented in
:func:`lazy_equivalent_gamma`.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro._validation import check_probability, check_vector
from repro.exceptions import InvalidParameterError
from repro.graph.matrices import normalized_laplacian, random_walk_matrix
from repro.linalg.solvers import conjugate_gradient


def pagerank_operator(graph, gamma):
    """The sparse matrix ``I − (1−γ) M`` whose inverse defines ``R_γ``."""
    gamma = check_probability(gamma, "gamma")
    n = graph.num_nodes
    return (
        sparse.identity(n, format="csr")
        - (1.0 - gamma) * random_walk_matrix(graph)
    ).tocsr()


def pagerank_exact(graph, gamma, seed_vector, *, tol=1e-12):
    """Solve ``(I − (1−γ) M) x = γ s`` exactly (to solver tolerance).

    Uses the similarity ``I − (1−γ)M = D^{1/2} (γ I + (1−γ) 𝓛) D^{-1/2}`` to
    reduce to an SPD system solved by conjugate gradients; the system matrix
    ``γ I + (1−γ) 𝓛`` has spectrum in ``[γ, γ + 2(1−γ)]`` so CG converges
    fast for moderate γ.
    """
    gamma = check_probability(gamma, "gamma")
    seed = check_vector(seed_vector, graph.num_nodes, "seed_vector")
    root = np.sqrt(graph.degrees)
    if np.any(root <= 0):
        raise InvalidParameterError("pagerank requires positive degrees")
    sym = (
        gamma * sparse.identity(graph.num_nodes, format="csr")
        + (1.0 - gamma) * normalized_laplacian(graph)
    ).tocsr()
    rhs = gamma * (seed / root)
    result = conjugate_gradient(sym, rhs, tol=tol, max_iterations=100_000)
    return root * result.solution


def lazy_pagerank_exact(graph, alpha, seed_vector, *, tol=1e-12):
    """Lazy-walk personalized PageRank ``α (I − (1−α) W)^{-1} s``.

    ``W = (I + M)/2`` is the half-lazy walk; this is the resolvent the ACL
    push algorithm approximates, so it is the oracle for push tests.
    """
    alpha = check_probability(alpha, "alpha")
    gamma = lazy_equivalent_gamma(alpha)
    # α(I-(1-α)W)^{-1} with W=(I+M)/2 equals γ(I-(1-γ)M)^{-1} for
    # γ = 2α/(1+α): both equal c(βI - M)^{-1} with matching β after scaling.
    return pagerank_exact(graph, gamma, seed_vector, tol=tol)


def lazy_equivalent_gamma(alpha):
    """Teleport parameter γ with ``R^lazy_α = R_γ``: ``γ = 2α / (1 + α)``.

    Derivation: ``I − (1−α)(I+M)/2 = ((1+α)/2)(I − ((1−α)/(1+α)) M)``, so
    the lazy resolvent equals the non-lazy resolvent with
    ``1 − γ = (1−α)/(1+α)``.
    """
    alpha = check_probability(alpha, "alpha")
    return 2.0 * alpha / (1.0 + alpha)


def pagerank_resolvent_dense(graph, gamma):
    """Dense ``R_γ = γ (I − (1−γ) M)^{-1}`` (test oracle / SDP experiments)."""
    gamma = check_probability(gamma, "gamma")
    op = pagerank_operator(graph, gamma).toarray()
    return gamma * np.linalg.inv(op)
