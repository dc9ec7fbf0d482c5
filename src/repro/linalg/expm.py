"""Action of the matrix exponential, ``exp(-t A) v``.

The Heat Kernel dynamics of Section 3.1 is
``H_t = exp(-t L) = Σ_k (-t)^k / k! · L^k`` applied to a seed vector. Two
implementations are provided:

* :func:`expm_action_taylor` — the truncated series the paper writes down,
  with an a-priori remainder bound used to pick the truncation order; and
* :func:`expm_action_lanczos` — a Krylov approximation, the "sophisticated
  variation of the Power Method" route.

Both only touch the operator through matvecs, preserving sparsity.
"""

from __future__ import annotations

import numpy as np

from repro._validation import check_int, check_positive, check_real
from repro.exceptions import InvalidParameterError
from repro.linalg.lanczos import lanczos
from repro.linalg.power import _as_matvec


def taylor_terms_for_tolerance(t, spectral_bound, tol):
    """Smallest ``K`` with ``Σ_{k>K} (t·ρ)^k / k! <= tol``.

    Uses the standard remainder bound for the exponential series of an
    operator with spectral radius ``ρ``: once ``k > 2 t ρ`` the terms decay
    geometrically with ratio ``<= 1/2``, so the tail is at most twice the
    next term.
    """
    t = check_positive(t, "t", allow_zero=True)
    rho = check_positive(spectral_bound, "spectral_bound", allow_zero=True)
    tol = check_positive(tol, "tol")
    x = t * rho
    if x == 0:
        return 1
    term = 1.0
    k = 0
    while True:
        k += 1
        term *= x / k
        if k >= 2 * x and 2 * term <= tol:
            return k
        if k > 10_000:
            raise InvalidParameterError(
                f"t * spectral_bound = {x:.3g} is too large for the Taylor "
                "series; use expm_action_lanczos"
            )


def expm_action_taylor(operator, vector, t, *, spectral_bound, tol=1e-12,
                       num_terms=None):
    """Compute ``exp(-t A) v`` by the truncated Taylor series.

    Parameters
    ----------
    operator:
        Symmetric PSD matrix or matvec callable for ``A``.
    vector:
        The seed vector ``v``.
    t:
        Nonnegative time parameter.
    spectral_bound:
        Upper bound on the spectral radius of ``A`` (for the normalized
        Laplacian, 2; for the combinatorial Laplacian, ``2 max_i d_i``).
    tol:
        Target truncation error relative to ``||v||`` (ignored when
        ``num_terms`` is given).
    num_terms:
        Explicit truncation order — this is the knob that makes the series
        an *approximation algorithm*, and truncating it aggressively is one
        of the implicit-regularization moves studied in E10.

    Returns
    -------
    numpy.ndarray
        The (possibly truncated) series value.
    """
    matvec = _as_matvec(operator)
    v = np.asarray(vector, dtype=float)
    t = check_positive(t, "t", allow_zero=True)
    if num_terms is None:
        num_terms = taylor_terms_for_tolerance(t, spectral_bound, tol)
    num_terms = check_int(num_terms, "num_terms", minimum=1)
    result = v.copy()
    term = v.copy()
    for k in range(1, num_terms + 1):
        term = (-t / k) * np.asarray(matvec(term), dtype=float)
        result += term
    return result


def expm_action_lanczos(operator, vector, t, *, num_steps=40):
    """Compute ``exp(-t A) v`` via the Lanczos (Krylov) approximation.

    Builds a ``k``-dimensional Krylov space from ``v``, exponentiates the
    tridiagonal projection exactly, and lifts back:
    ``exp(-tA) v ≈ ||v|| · V exp(-tT) e_1``.
    """
    v = np.asarray(vector, dtype=float)
    t = check_real(t, "t")
    n = v.shape[0]
    norm = float(np.linalg.norm(v))
    if norm == 0:
        return np.zeros(n)
    # Imported here so ``import repro`` does not load scipy.linalg.
    from scipy.linalg import eigh_tridiagonal

    decomposition = lanczos(operator, n, min(num_steps, n), v0=v)
    values, vectors = eigh_tridiagonal(
        decomposition.alphas, decomposition.betas
    )
    e1 = np.zeros(decomposition.num_steps)
    e1[0] = 1.0
    small = vectors @ (np.exp(-t * values) * (vectors.T @ e1))
    return norm * (decomposition.basis @ small)


def heat_kernel_dense(matrix, t):
    """Dense ``exp(-t A)`` via eigendecomposition (test oracle; O(n^3))."""
    arr = np.asarray(matrix.todense() if hasattr(matrix, "todense") else matrix,
                     dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidParameterError("heat_kernel_dense needs a square matrix")
    values, vectors = np.linalg.eigh((arr + arr.T) / 2.0)
    return (vectors * np.exp(-t * values)) @ vectors.T
