"""Heat-kernel diffusion: ``H_t = exp(-t L)`` applied to a seed vector.

This is the first canonical dynamics of Section 3.1: "the charge evolves
according to the heat equation ∂H_t/∂t = −L H_t", i.e.
``H_t = Σ_k (−t)^k / k! · L^k`` times the seed.

Two Laplacian conventions are supported, because both appear in the paper's
orbit:

* ``kind="normalized"`` — ``exp(-t 𝓛)`` with 𝓛 the normalized Laplacian;
  this is the operator whose regularized-SDP characterization (Problem (5)
  with the generalized-entropy regularizer) experiment E4 verifies.
* ``kind="random_walk"`` — ``exp(-t (I - M))`` with ``M = A D^{-1}``; this
  version conserves probability mass and is the one local heat-kernel
  methods [15] diffuse. The two are similar matrices:
  ``exp(-t(I-M)) = D^{1/2} exp(-t 𝓛) D^{-1/2}``.
"""

from __future__ import annotations

import numpy as np

from repro._validation import check_positive, check_vector
from repro.exceptions import InvalidParameterError
from repro.graph.matrices import normalized_laplacian, random_walk_matrix
from repro.linalg.expm import expm_action_lanczos, expm_action_taylor


_KINDS = ("normalized", "random_walk")


def _heat_operator(graph, kind):
    if kind == "normalized":
        return normalized_laplacian(graph)
    if kind == "random_walk":
        from scipy import sparse

        n = graph.num_nodes
        return (sparse.identity(n, format="csr")
                - random_walk_matrix(graph)).tocsr()
    raise InvalidParameterError(
        f"kind must be one of {_KINDS}; got {kind!r}"
    )


def heat_kernel_vector(graph, seed_vector, t, *, kind="random_walk",
                       method="lanczos", tol=1e-12, num_terms=None):
    """Diffuse ``seed_vector`` for time ``t`` under the heat kernel.

    Parameters
    ----------
    graph:
        The graph (positive degrees required).
    seed_vector:
        Initial charge distribution.
    t:
        Diffusion time — the "aggressiveness" parameter of Section 3.1;
        ``t → ∞`` equilibrates to the trivial direction, small ``t`` stays
        near the seed.
    kind:
        Laplacian convention, see module docstring.
    method:
        ``"taylor"`` (the paper's series, truncated with an error bound) or
        ``"lanczos"`` (Krylov; default). ``kind="random_walk"`` is
        nonsymmetric, so Lanczos runs on the symmetrized operator via the
        similarity transform.
    tol:
        Series tolerance for the Taylor method.
    num_terms:
        Explicit Taylor truncation order (making the computation an
        aggressive approximation; used by E10).

    Returns
    -------
    numpy.ndarray
        ``exp(-t · Op) seed_vector``.
    """
    t = check_positive(t, "t", allow_zero=True)
    seed = check_vector(seed_vector, graph.num_nodes, "seed_vector")
    if kind == "random_walk" and method == "lanczos":
        # Symmetrize through D^{1/2}: exp(-t(I-M)) = D^{1/2} e^{-t𝓛} D^{-1/2}.
        root = np.sqrt(graph.degrees)
        sym = normalized_laplacian(graph)
        inner = expm_action_lanczos(sym, seed / root, t)
        return root * inner
    operator = _heat_operator(graph, kind)
    if method == "lanczos":
        return expm_action_lanczos(operator, seed, t)
    if method == "taylor":
        return expm_action_taylor(
            operator, seed, t, spectral_bound=2.0, tol=tol,
            num_terms=num_terms,
        )
    raise InvalidParameterError(
        f"method must be 'taylor' or 'lanczos'; got {method!r}"
    )


def heat_kernel_matrix(graph, t, *, kind="normalized"):
    """Dense ``exp(-t · Op)`` (test oracle and SDP experiments; O(n^3)).

    The random-walk operator ``I − M`` is nonsymmetric; its exponential is
    computed through the similarity ``exp(-t(I-M)) = D^{1/2} e^{-t𝓛}
    D^{-1/2}`` rather than by (incorrectly) symmetrizing it.
    """
    from repro.linalg.expm import heat_kernel_dense

    t = check_positive(t, "t", allow_zero=True)
    if kind == "random_walk":
        root = np.sqrt(graph.degrees)
        sym = heat_kernel_dense(normalized_laplacian(graph), t)
        return (root[:, None] * sym) / root[None, :]
    return heat_kernel_dense(_heat_operator(graph, kind), t)
