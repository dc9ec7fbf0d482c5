"""Randomized sketching for matrix problems (RandNLA).

Section 2.3 of the paper observes that "empirically similar regularization
effects are observed when randomization is included inside the algorithm,
e.g., as with randomized algorithms for matrix problems such as low-rank
matrix approximation and least-squares approximation [30]". This module
supplies those randomized primitives from scratch so that experiment E11 can
measure the implicit-regularization effect of sketch-and-solve least squares:

* :func:`gaussian_sketch` — dense Gaussian sketching matrix;
* :func:`sparse_sign_sketch` — CountSketch-style sparse embedding;
* :func:`srdt_sketch` — subsampled randomized discrete cosine transform
  (an SRHT variant that works for any ``n``);
* :func:`sketched_least_squares` — sketch-and-solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro._validation import as_rng, check_int
from repro.exceptions import InvalidParameterError


def gaussian_sketch(sketch_size, n, seed=None):
    """Dense Gaussian sketch ``S`` with i.i.d. ``N(0, 1/sketch_size)`` entries."""
    sketch_size = check_int(sketch_size, "sketch_size", minimum=1)
    n = check_int(n, "n", minimum=1)
    rng = as_rng(seed)
    return rng.standard_normal((sketch_size, n)) / np.sqrt(sketch_size)


def sparse_sign_sketch(sketch_size, n, seed=None, *, nnz_per_column=8):
    """Sparse sign sketch: each column has ``nnz_per_column`` random ±1 entries.

    This is the classic sparse embedding (OSNAP/CountSketch family): applying
    it costs ``O(nnz_per_column)`` per input coordinate.
    """
    sketch_size = check_int(sketch_size, "sketch_size", minimum=1)
    n = check_int(n, "n", minimum=1)
    s = check_int(nnz_per_column, "nnz_per_column", minimum=1,
                  maximum=sketch_size)
    rng = as_rng(seed)
    rows = np.empty(n * s, dtype=np.int64)
    for j in range(n):
        rows[j * s:(j + 1) * s] = rng.choice(sketch_size, size=s, replace=False)
    cols = np.repeat(np.arange(n), s)
    signs = rng.choice([-1.0, 1.0], size=n * s) / np.sqrt(s)
    return sparse.csr_matrix(
        (signs, (rows, cols)), shape=(sketch_size, n)
    )


def srdt_sketch_apply(matrix, sketch_size, seed=None):
    """Apply a subsampled randomized DCT sketch to the rows of ``matrix``.

    Computes ``S A`` where ``S = sqrt(n/k) · P · C · D``: ``D`` random signs,
    ``C`` the orthonormal DCT-II, ``P`` a uniform row sample of size ``k``.
    Works for arbitrary ``n`` (no power-of-two padding needed).
    """
    # Imported here so ``import repro`` does not load scipy.fft.
    from scipy.fft import dct

    A = np.asarray(matrix, dtype=float)
    if A.ndim == 1:
        A = A[:, None]
    n = A.shape[0]
    k = check_int(sketch_size, "sketch_size", minimum=1, maximum=n)
    rng = as_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=n)
    mixed = dct(signs[:, None] * A, axis=0, norm="ortho")
    picked = rng.choice(n, size=k, replace=False)
    return np.sqrt(n / k) * mixed[picked]


@dataclass
class SketchedLeastSquaresResult:
    """Result of sketch-and-solve least squares.

    Attributes
    ----------
    solution:
        Minimizer of ``||S(Ax - b)||``.
    sketch_size:
        Number of sketch rows used.
    residual_norm:
        Unsketched residual ``||A x - b||`` of the sketched solution.
    solution_norm:
        ``||x||_2`` — the quantity whose shrinkage reveals the implicit
        regularization of sketching.
    """

    solution: np.ndarray
    sketch_size: int
    residual_norm: float
    solution_norm: float


def sketched_least_squares(design, target, sketch_size, *, kind="gaussian",
                           seed=None):
    """Sketch-and-solve least squares ``min_x ||S A x - S b||``.

    Parameters
    ----------
    design:
        ``(n, d)`` design matrix with ``n >= d``.
    target:
        ``(n,)`` response vector.
    sketch_size:
        Number of sketch rows (``>= d`` for a determined sketched system).
    kind:
        ``"gaussian"``, ``"sparse"``, or ``"srdt"``.
    seed:
        RNG seed.
    """
    A = np.asarray(design, dtype=float)
    b = np.asarray(target, dtype=float)
    if A.ndim != 2:
        raise InvalidParameterError("design must be a 2-d array")
    n, d = A.shape
    if b.shape != (n,):
        raise InvalidParameterError(f"target must have shape ({n},)")
    k = check_int(sketch_size, "sketch_size", minimum=d, maximum=n)
    if kind == "gaussian":
        S = gaussian_sketch(k, n, seed=seed)
        SA, Sb = S @ A, S @ b
    elif kind == "sparse":
        S = sparse_sign_sketch(k, n, seed=seed)
        SA, Sb = S @ A, S @ b
    elif kind == "srdt":
        stacked = srdt_sketch_apply(np.column_stack([A, b]), k, seed=seed)
        SA, Sb = stacked[:, :d], stacked[:, d]
    else:
        raise InvalidParameterError(
            f"kind must be 'gaussian', 'sparse', or 'srdt'; got {kind!r}"
        )
    solution, *_ = np.linalg.lstsq(SA, Sb, rcond=None)
    residual = float(np.linalg.norm(A @ solution - b))
    return SketchedLeastSquaresResult(
        solution=solution,
        sketch_size=k,
        residual_norm=residual,
        solution_norm=float(np.linalg.norm(solution)),
    )

