"""Tests for randomized sketching (RandNLA) primitives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.linalg.sketch import (
    gaussian_sketch,
    sketched_least_squares,
    sparse_sign_sketch,
    srdt_sketch_apply,
)


@pytest.fixture
def ls_problem(rng):
    n, d = 400, 15
    A = rng.standard_normal((n, d))
    x_true = rng.standard_normal(d)
    b = A @ x_true + 0.05 * rng.standard_normal(n)
    exact, *_ = np.linalg.lstsq(A, b, rcond=None)
    return A, b, exact


class TestSketchOperators:
    def test_gaussian_shape_and_scale(self):
        S = gaussian_sketch(50, 200, seed=0)
        assert S.shape == (50, 200)
        # Columns have expected squared norm ~ 1.
        norms = (S**2).sum(axis=0)
        assert norms.mean() == pytest.approx(1.0, rel=0.2)

    def test_sparse_sign_nnz(self):
        S = sparse_sign_sketch(60, 100, seed=1, nnz_per_column=5)
        assert S.shape == (60, 100)
        assert S.nnz == 100 * 5

    def test_sparse_sign_norm_preserving_in_expectation(self, rng):
        S = sparse_sign_sketch(120, 300, seed=2)
        x = rng.standard_normal(300)
        assert np.linalg.norm(S @ x) == pytest.approx(
            np.linalg.norm(x), rel=0.3
        )

    def test_srdt_norm_preserving_in_expectation(self, rng):
        x = rng.standard_normal(256)
        sketched = srdt_sketch_apply(x, 128, seed=3)
        assert np.linalg.norm(sketched) == pytest.approx(
            np.linalg.norm(x), rel=0.3
        )

    def test_srdt_sketch_size_bounds(self, rng):
        with pytest.raises(InvalidParameterError):
            srdt_sketch_apply(rng.standard_normal(10), 11, seed=0)


class TestSketchedLeastSquares:
    @pytest.mark.parametrize("kind", ["gaussian", "sparse", "srdt"])
    def test_near_optimal_residual(self, ls_problem, kind):
        A, b, exact = ls_problem
        optimal = np.linalg.norm(A @ exact - b)
        result = sketched_least_squares(A, b, 150, kind=kind, seed=4)
        # Sketch-and-solve gives (1 + eps) approximation of the residual.
        assert result.residual_norm <= 1.3 * optimal

    def test_sketch_size_validation(self, ls_problem):
        A, b, _ = ls_problem
        with pytest.raises(InvalidParameterError):
            sketched_least_squares(A, b, 5, seed=0)  # below d

    def test_unknown_kind(self, ls_problem):
        A, b, _ = ls_problem
        with pytest.raises(InvalidParameterError):
            sketched_least_squares(A, b, 100, kind="fourier")

    def test_larger_sketch_closer_to_exact(self, ls_problem):
        A, b, exact = ls_problem
        errors = []
        for k in (30, 120, 390):
            deviations = [
                np.linalg.norm(
                    sketched_least_squares(
                        A, b, k, kind="gaussian", seed=s
                    ).solution - exact
                )
                for s in range(8)
            ]
            errors.append(np.mean(deviations))
        assert errors[2] < errors[0]

    def test_implicit_shrinkage_on_ill_conditioned(self, rng):
        # On an ill-conditioned design, small sketches act like ridge: the
        # average sketched solution norm should not exceed (much) the OLS
        # norm, and variance shows up in the solution rather than blowup.
        n, d = 300, 12
        U, _ = np.linalg.qr(rng.standard_normal((n, d)))
        V, _ = np.linalg.qr(rng.standard_normal((d, d)))
        s = np.geomspace(1.0, 1e-3, d)
        A = (U * s) @ V.T
        b = rng.standard_normal(n)
        exact, *_ = np.linalg.lstsq(A, b, rcond=None)
        norms = [
            sketched_least_squares(A, b, 40, seed=seed).solution_norm
            for seed in range(10)
        ]
        # Heavily sketched solutions fluctuate but should stay within a few
        # multiples of the exact norm (no catastrophic blowup).
        assert np.median(norms) < 10 * np.linalg.norm(exact)
