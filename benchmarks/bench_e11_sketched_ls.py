"""E11 — Section 2.3 + [30]: randomized sketching regularizes least squares.

On an ill-conditioned design, sketch-and-solve least squares behaves like a
ridge estimator: as the sketch shrinks, the solution moves along a path of
increasing loss, comparable to the explicit ridge path — "empirically
similar regularization effects are observed when randomization is included
inside the algorithm".

Measured: for a sweep of sketch sizes, the median (over sketch draws)
unsketched residual and out-of-sample error, placed alongside the ridge
path; the shape claim is that residual decreases monotonically with sketch
size, approaching the OLS optimum, while small sketches sit at ridge-like
points of the tradeoff.
"""

from __future__ import annotations

import numpy as np

from repro.core import format_comparison_verdict, format_table
from repro.linalg.sketch import sketched_least_squares
from repro.regularization import ridge_path


def build_problem(seed=0):
    rng = np.random.default_rng(seed)
    n, d = 600, 20
    U, _ = np.linalg.qr(rng.standard_normal((n, d)))
    V, _ = np.linalg.qr(rng.standard_normal((d, d)))
    spectrum = np.geomspace(1.0, 1e-3, d)
    A = (U * spectrum) @ V.T
    x_true = rng.standard_normal(d)
    noise = 0.05 * rng.standard_normal(n)
    b = A @ x_true + noise
    A_test = (U * spectrum) @ V.T  # same design; fresh noise for testing
    b_test = A @ x_true + 0.05 * rng.standard_normal(n)
    return A, b, A_test, b_test


def run_sweep():
    A, b, A_test, b_test = build_problem()
    ols, *_ = np.linalg.lstsq(A, b, rcond=None)
    ols_residual = float(np.linalg.norm(A @ ols - b))
    rows = []
    for k in (25, 50, 100, 300, 600):
        residuals, test_errors, norms = [], [], []
        for draw in range(9):
            result = sketched_least_squares(
                A, b, k, kind="gaussian", seed=1000 + draw
            )
            residuals.append(result.residual_norm)
            test_errors.append(
                float(np.linalg.norm(A_test @ result.solution - b_test))
            )
            norms.append(result.solution_norm)
        rows.append(
            [k, float(np.median(residuals)), float(np.median(test_errors)),
             float(np.median(norms))]
        )
    ridge_rows = [
        [lam, np.sqrt(sol.loss_value), np.sqrt(sol.penalty_value)]
        for lam, sol in zip(
            (1e-6, 1e-4, 1e-2),
            ridge_path(A, b, (1e-6, 1e-4, 1e-2)),
        )
    ]
    return rows, ridge_rows, ols_residual, float(np.linalg.norm(ols))


def test_e11_sketched_least_squares():
    rows, ridge_rows, ols_residual, ols_norm = run_sweep()
    print()
    print(format_table(
        ["sketch size", "median residual", "median test error",
         "median ||x||"],
        rows,
        title=(
            f"E11: sketch-and-solve path (OLS residual "
            f"{ols_residual:.4f}, ||x_OLS|| = {ols_norm:.3g})"
        ),
    ))
    print()
    print(format_table(
        ["lambda", "ridge residual", "ridge ||x||"],
        ridge_rows,
        title="Explicit ridge path for comparison",
    ))
    residuals = [r[1] for r in rows]
    monotone = all(b <= a + 1e-9 for a, b in zip(residuals, residuals[1:]))
    approaches_ols = residuals[-1] <= 1.05 * ols_residual
    print()
    print(format_comparison_verdict(
        "residual decreases monotonically with sketch size toward OLS",
        True, monotone and approaches_ols,
    ))
    assert monotone and approaches_ols
