"""Conjugate gradient for symmetric positive (semi)definite systems.

The PageRank dynamics of Section 3.1 is the resolvent system
``(I - (1-γ) M) x = γ s``; the solver is how that resolvent is applied
without ever forming an inverse. It returns a :class:`SolveResult` with the
residual history, because *truncating the iteration early* is one of the
implicit-regularization knobs the paper studies.

The operator is a scipy sparse matrix, a dense array, or a matvec callable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._validation import check_int, check_positive, check_vector
from repro.exceptions import ConvergenceError
from repro.linalg.power import _as_matvec


@dataclass
class SolveResult:
    """Outcome of an iterative solve.

    Attributes
    ----------
    solution:
        Final iterate.
    iterations:
        Iterations performed.
    converged:
        Whether ``||b - A x|| <= tol * ||b||`` was reached.
    residual_norm:
        Final absolute residual norm.
    residual_history:
        Absolute residual norm after each iteration.
    """

    solution: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float
    residual_history: list = field(default_factory=list)


def _finalize(matvec, b, x, iterations, history, tol, raise_on_failure, name):
    residual = float(np.linalg.norm(b - matvec(x)))
    # Relative test with an absolute floor near machine precision, so that
    # solves with tiny right-hand sides are not flagged spuriously.
    solution_scale = 1.0 + float(np.linalg.norm(x))
    threshold = max(
        tol * float(np.linalg.norm(b)),
        100 * np.finfo(float).eps * solution_scale,
    )
    converged = residual <= threshold
    if not converged and raise_on_failure:
        raise ConvergenceError(
            f"{name} did not converge in {iterations} iterations "
            f"(residual {residual:.3e})",
            iterations=iterations,
            residual=residual,
        )
    return SolveResult(
        solution=x,
        iterations=iterations,
        converged=converged,
        residual_norm=residual,
        residual_history=history,
    )


def conjugate_gradient(
    operator, b, *, x0=None, tol=1e-10, max_iterations=10_000,
    raise_on_failure=True,
):
    """Conjugate gradients for a symmetric positive (semi)definite system.

    For singular-but-consistent systems (e.g. the combinatorial Laplacian
    with a mean-zero right-hand side) CG converges to the minimum-norm
    solution within the range space.
    """
    matvec = _as_matvec(operator)
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    tol = check_positive(tol, "tol")
    max_iterations = check_int(max_iterations, "max_iterations", minimum=1)
    x = np.zeros(n) if x0 is None else check_vector(x0, n, "x0").copy()
    r = b - matvec(x)
    p = r.copy()
    rs_old = float(r @ r)
    b_norm = max(float(np.linalg.norm(b)), 1e-300)
    history = []
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        Ap = matvec(p)
        denom = float(p @ Ap)
        if denom <= 0:
            # Direction of (numerically) zero curvature: stop — for PSD
            # systems this means the residual lies in the null space.
            break
        alpha = rs_old / denom
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(r @ r)
        history.append(np.sqrt(rs_new))
        if np.sqrt(rs_new) <= tol * b_norm:
            break
        p = r + (rs_new / rs_old) * p
        rs_old = rs_new
    return _finalize(
        matvec, b, x, iterations, history, tol, raise_on_failure,
        "conjugate gradient",
    )
