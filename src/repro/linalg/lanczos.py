"""Lanczos tridiagonalization and Ritz-value eigensolvers.

Footnote 15 of the paper notes that the "more sophisticated eigenvalue
algorithms" used in practice — Lanczos in particular — "can often be viewed
as variations" of the Power Method that "look at a subspace of vectors
generated during the iteration". This module provides that variation: a
symmetric Lanczos process with optional full reorthogonalization, plus
helpers to extract extreme eigenpairs.

The only dense-eigenvalue primitive used is the tridiagonal solver
(:func:`scipy.linalg.eigh_tridiagonal`), i.e. the part of the computation
whose cost is independent of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import as_rng, check_int
from repro.exceptions import InvalidParameterError
from repro.linalg.power import _as_matvec, _project_out


@dataclass
class LanczosDecomposition:
    """Partial tridiagonalization ``A V ≈ V T + β_k v_{k+1} e_k^T``.

    Attributes
    ----------
    alphas:
        Diagonal of the tridiagonal matrix ``T`` (length ``k``).
    betas:
        Off-diagonal of ``T`` (length ``k - 1``).
    basis:
        ``(n, k)`` orthonormal Lanczos basis ``V``.
    breakdown:
        True when the process terminated early because the Krylov space
        became invariant (beta underflow).
    """

    alphas: np.ndarray
    betas: np.ndarray
    basis: np.ndarray
    breakdown: bool

    @property
    def num_steps(self):
        return self.alphas.size

    def ritz_pairs(self):
        """All Ritz values and Ritz vectors of the current decomposition."""
        if self.num_steps == 0:
            raise InvalidParameterError("empty Lanczos decomposition")
        # Imported here so ``import repro`` does not load scipy.linalg.
        from scipy.linalg import eigh_tridiagonal

        values, vectors = eigh_tridiagonal(self.alphas, self.betas)
        return values, self.basis @ vectors


def lanczos(
    operator,
    n,
    num_steps,
    *,
    v0=None,
    deflate=(),
    reorthogonalize=True,
    seed=None,
    breakdown_tol=1e-10,
):
    """Run ``num_steps`` of the symmetric Lanczos process.

    Parameters
    ----------
    operator:
        Symmetric matrix or matvec callable.
    n:
        Dimension.
    num_steps:
        Maximum Krylov dimension ``k`` (capped at ``n``).
    v0:
        Starting vector; random when omitted.
    deflate:
        Unit vectors projected out of every basis vector (exact invariant
        subspaces such as the trivial Laplacian eigenvector).
    reorthogonalize:
        Apply full reorthogonalization against the accumulated basis. Without
        it, finite precision re-introduces converged Ritz directions — the
        classic Lanczos instability (see Section 2.2's discussion of roundoff
        as a noise source).
    seed:
        RNG seed for the random start.
    breakdown_tol:
        β threshold below which the Krylov space is declared invariant.

    Returns
    -------
    LanczosDecomposition
    """
    n = check_int(n, "n", minimum=1)
    num_steps = min(check_int(num_steps, "num_steps", minimum=1), n)
    matvec = _as_matvec(operator)
    deflate = [np.asarray(b, dtype=float) for b in deflate]
    rng = as_rng(seed)
    if v0 is None:
        vector = rng.standard_normal(n)
    else:
        vector = np.array(v0, dtype=float)
        if vector.shape != (n,):
            raise InvalidParameterError(f"v0 must have shape ({n},)")
    vector = _project_out(vector, deflate)
    norm = np.linalg.norm(vector)
    if norm == 0:
        raise InvalidParameterError(
            "starting vector lies entirely in the deflated subspace"
        )
    vector /= norm

    basis = np.zeros((n, num_steps))
    alphas = np.zeros(num_steps)
    betas = np.zeros(max(num_steps - 1, 0))
    previous = np.zeros(n)
    beta = 0.0
    breakdown = False
    steps_done = 0
    for step in range(num_steps):
        basis[:, step] = vector
        steps_done = step + 1
        image = np.asarray(matvec(vector), dtype=float)
        image = _project_out(image, deflate)
        alpha = float(vector @ image)
        alphas[step] = alpha
        image = image - alpha * vector - beta * previous
        if reorthogonalize:
            # Two passes of classical Gram–Schmidt against the full basis.
            for _ in range(2):
                image -= basis[:, : step + 1] @ (basis[:, : step + 1].T @ image)
        # Roundoff can reintroduce the deflated directions exactly when the
        # genuine residual is small (near breakdown); project them out again
        # so the normalized next vector cannot be dominated by them.
        image = _project_out(image, deflate)
        beta = float(np.linalg.norm(image))
        if step + 1 < num_steps:
            if beta < breakdown_tol:
                breakdown = True
                break
            betas[step] = beta
            previous = vector
            vector = image / beta
    return LanczosDecomposition(
        alphas=alphas[:steps_done],
        betas=betas[: max(steps_done - 1, 0)],
        basis=basis[:, :steps_done],
        breakdown=breakdown,
    )


def lanczos_extreme_eigenpairs(
    operator,
    n,
    k=1,
    *,
    which="smallest",
    num_steps=None,
    deflate=(),
    seed=None,
):
    """Extreme eigenpairs of a symmetric operator via Lanczos.

    Parameters
    ----------
    operator, n:
        As in :func:`lanczos`.
    k:
        Number of eigenpairs to return.
    which:
        ``"smallest"`` or ``"largest"``.
    num_steps:
        Krylov dimension; defaults to ``min(n, max(4 k + 30, 2 k))``.
    deflate, seed:
        As in :func:`lanczos`.

    Returns
    -------
    values:
        ``(k,)`` eigenvalue estimates, sorted ascending.
    vectors:
        ``(n, k)`` unit-norm eigenvector estimates.
    """
    k = check_int(k, "k", minimum=1)
    if which not in ("smallest", "largest"):
        raise InvalidParameterError(
            f"which must be 'smallest' or 'largest'; got {which!r}"
        )
    if num_steps is None:
        num_steps = min(n, max(4 * k + 30, 2 * k))
    decomposition = lanczos(
        operator, n, num_steps, deflate=deflate, seed=seed
    )
    values, vectors = decomposition.ritz_pairs()
    if k > values.size:
        raise InvalidParameterError(
            f"requested {k} eigenpairs but Krylov space has dimension "
            f"{values.size}"
        )
    if which == "smallest":
        chosen = slice(0, k)
    else:
        chosen = slice(values.size - k, values.size)
    picked_values = values[chosen]
    picked_vectors = vectors[:, chosen]
    # Normalize columns (Ritz vectors are orthonormal up to roundoff).
    picked_vectors = picked_vectors / np.linalg.norm(picked_vectors, axis=0)
    return picked_values.copy(), picked_vectors
