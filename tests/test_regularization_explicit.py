"""Tests for explicit regularization, paths, and implicit estimators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.regularization.implicit import (
    early_stopping_path,
    noise_sensitivity,
    truncation_path,
)
from repro.regularization.objectives import (
    effective_degrees_of_freedom,
    graph_tikhonov,
    lasso_ista,
    ridge_path,
    ridge_regression,
    soft_threshold,
)
from repro.regularization.path import (
    heat_kernel_path,
    lazy_walk_path,
    pagerank_path,
    path_is_monotone,
    tradeoff_table,
)


@pytest.fixture
def regression_problem(rng):
    n, d = 120, 8
    A = rng.standard_normal((n, d))
    x_true = np.zeros(d)
    x_true[:3] = [2.0, -1.5, 1.0]
    b = A @ x_true + 0.1 * rng.standard_normal(n)
    return A, b, x_true


class TestRidge:
    def test_zero_lambda_is_ols(self, regression_problem):
        A, b, _ = regression_problem
        ols, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert np.allclose(ridge_regression(A, b, 0.0).solution, ols,
                           atol=1e-8)

    def test_norm_shrinks_with_lambda(self, regression_problem):
        A, b, _ = regression_problem
        norms = [
            np.linalg.norm(ridge_regression(A, b, lam).solution)
            for lam in (0.0, 1.0, 10.0, 100.0)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_normal_equations_satisfied(self, regression_problem):
        A, b, _ = regression_problem
        lam = 3.0
        x = ridge_regression(A, b, lam).solution
        residual = A.T @ (A @ x - b) + lam * x
        assert np.abs(residual).max() < 1e-8

    def test_ridge_path_ordering(self, regression_problem):
        A, b, _ = regression_problem
        path = ridge_path(A, b, [0.1, 1.0, 10.0])
        losses = [p.loss_value for p in path]
        assert losses == sorted(losses)  # loss grows with regularization

    def test_effective_dof_decreasing(self, regression_problem):
        A, _, _ = regression_problem
        dofs = [effective_degrees_of_freedom(A, lam)
                for lam in (0.0, 1.0, 100.0, 1e6)]
        assert dofs[0] == pytest.approx(8.0)
        assert all(b < a for a, b in zip(dofs, dofs[1:]))


class TestLasso:
    def test_soft_threshold(self):
        v = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        out = soft_threshold(v, 1.0)
        assert np.allclose(out, [-2.0, 0.0, 0.0, 0.0, 2.0])

    def test_recovers_sparse_support(self, regression_problem):
        A, b, x_true = regression_problem
        result = lasso_ista(A, b, 5.0, tol=1e-10)
        support = np.abs(result.solution) > 1e-6
        assert set(np.flatnonzero(support)) <= set(range(3)) | set()
        assert support[:2].all()

    def test_large_lambda_gives_zero(self, regression_problem):
        A, b, _ = regression_problem
        result = lasso_ista(A, b, 1e5)
        assert np.allclose(result.solution, 0.0)

    def test_optimality_condition(self, regression_problem):
        # Subgradient optimality: |A^T(Ax-b)| <= lam, equality on support.
        A, b, _ = regression_problem
        lam = 2.0
        x = lasso_ista(A, b, lam, tol=1e-12).solution
        correlation = A.T @ (A @ x - b)
        assert np.all(np.abs(correlation) <= lam + 1e-6)
        on_support = np.abs(x) > 1e-8
        assert np.allclose(
            np.abs(correlation[on_support]), lam, atol=1e-6
        )


class TestGraphTikhonov:
    def test_zero_lambda_is_identity(self, grid, rng):
        y = rng.standard_normal(grid.num_nodes)
        assert np.allclose(graph_tikhonov(grid, y, 0.0).solution, y)

    def test_smooths_noise(self, grid, rng):
        from repro.graph.matrices import laplacian_quadratic_form

        y = rng.standard_normal(grid.num_nodes)
        smoothed = graph_tikhonov(grid, y, 5.0).solution
        assert laplacian_quadratic_form(grid, smoothed) < (
            laplacian_quadratic_form(grid, y)
        )

    def test_large_lambda_approaches_mean(self, ring, rng):
        y = rng.standard_normal(ring.num_nodes)
        smoothed = graph_tikhonov(ring, y, 1e7).solution
        assert np.allclose(smoothed, y.mean(), atol=1e-2)


class TestDiffusionPaths:
    def test_heat_path_shapes(self, ring):
        points = heat_kernel_path(ring, [0.1, 1.0, 10.0, 100.0])
        # More time (less regularization): Rayleigh decreases toward λ2,
        # entropy decreases toward 0, distance to optimum decreases.
        assert path_is_monotone(points, "rayleigh", increasing=False)
        assert path_is_monotone(points, "entropy", increasing=False)
        assert path_is_monotone(
            points, "distance_to_optimum", increasing=False
        )

    def test_pagerank_path_shapes(self, barbell):
        # γ → 0 is the unregularized limit for PageRank.
        points = pagerank_path(barbell, [0.8, 0.4, 0.1, 0.01])
        assert path_is_monotone(points, "rayleigh", increasing=False)

    def test_lazy_walk_path_shapes(self, grid):
        points = lazy_walk_path(grid, [1, 3, 10, 30], alpha=0.6)
        assert path_is_monotone(points, "rayleigh", increasing=False)
        assert path_is_monotone(points, "effective_rank", increasing=False)

    def test_rayleigh_bounded_below_by_lambda2(self, ring):
        from repro.linalg.fiedler import fiedler_value

        lam2 = fiedler_value(ring, method="exact")
        for point in heat_kernel_path(ring, [0.5, 5.0, 50.0]):
            assert point.rayleigh >= lam2 - 1e-9

    def test_tradeoff_table_rows(self, ring):
        points = heat_kernel_path(ring, [1.0, 2.0])
        table = tradeoff_table(points)
        assert len(table) == 2 and len(table[0]) == 4


class TestImplicitRegularization:
    def test_early_stopping_rayleigh_decreases(self, barbell):
        points = early_stopping_path(barbell, 200, seed=3)
        # Rayleigh quotient converges down toward λ2 (allow tiny noise).
        assert points[-1].rayleigh < points[0].rayleigh
        assert points[-1].alignment > 0.99

    def test_early_stopping_alignment_increases(self, ring):
        points = early_stopping_path(ring, 300, seed=4)
        assert points[-1].alignment > points[0].alignment

    def test_noise_sensitivity_early_stopped_more_robust(self, planted):
        # An early-stopped power method output should move less under edge
        # noise than the fully converged eigenvector on a graph with small
        # spectral gap. Use the barbell, where λ2 ≈ λ3 makes the exact
        # eigenvector ill-conditioned.
        from repro.graph.generators import barbell_graph
        from repro.graph.matrices import normalized_laplacian, trivial_eigenvector
        from repro.linalg.power import power_method

        graph = barbell_graph(10)

        def estimator_at(k):
            def run(g, rng):
                laplacian = normalized_laplacian(g)
                trivial = trivial_eigenvector(g)
                result = power_method(
                    lambda x: 2 * x - laplacian @ x, g.num_nodes,
                    deflate=[trivial], tol=1e-300, max_iterations=k,
                    seed=0, raise_on_failure=False,
                )
                return result.eigenvector
            return run

        rough, _ = noise_sensitivity(
            graph, estimator_at(3), flip_probability=0.05, num_trials=6,
            seed=1,
        )
        fine, _ = noise_sensitivity(
            graph, estimator_at(2000), flip_probability=0.05, num_trials=6,
            seed=1,
        )
        assert np.isfinite(rough) and np.isfinite(fine)
        assert rough <= fine + 0.5  # rough output at least as stable

    def test_truncation_path_tradeoffs(self, ring):
        points = truncation_path(
            ring, [0], [1e-2, 1e-3, 1e-4, 1e-5], alpha=0.15
        )
        supports = [p.support_size for p in points]
        errors = [p.error for p in points]
        # Smaller ε: bigger support, smaller error; error <= ε always.
        assert supports == sorted(supports)
        assert errors[-1] <= errors[0] + 1e-12
        for point in points:
            assert point.error <= point.epsilon + 1e-12
