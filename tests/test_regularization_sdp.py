"""Tests for the spectral SDP, closed forms, solvers, and equivalence.

These are the tests of the paper's central theorem (Section 3.1 / Problem
(5)): each diffusion dynamics exactly optimizes its regularized SDP.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.regularization.closed_forms import (
    GeneralizedEntropy,
    LogDeterminant,
    MatrixPNorm,
    eta_for_pagerank,
    heat_kernel_density,
    lazy_walk_density,
    pagerank_density,
)
from repro.regularization.equivalence import (
    assert_equivalence,
    verify_all,
    verify_heat_kernel,
    verify_lazy_walk,
    verify_pagerank,
)
from repro.regularization.sdp import (
    SpectralSDP,
    deflation_basis,
    density_from_vector,
    normalize_to_density,
)
from repro.regularization.solver import (
    kkt_stationarity_residual,
    mirror_descent,
    projected_gradient,
    simplex_projection,
    spectrahedron_projection,
)


class TestSpectralSDP:
    def test_deflation_basis_orthonormal(self, rng):
        v = rng.standard_normal(10)
        v /= np.linalg.norm(v)
        Q = deflation_basis(v)
        assert Q.shape == (10, 9)
        assert np.allclose(Q.T @ Q, np.eye(9), atol=1e-12)
        assert np.abs(Q.T @ v).max() < 1e-12

    def test_exact_solution_is_rank_one_fiedler(self, barbell):
        sdp = SpectralSDP.from_graph(barbell)
        X, lam = sdp.exact_solution()
        from repro.linalg.fiedler import fiedler_pair

        lam_ref, x_ref = fiedler_pair(barbell, method="exact")
        assert lam == pytest.approx(lam_ref, abs=1e-10)
        assert np.allclose(X, np.outer(x_ref, x_ref), atol=1e-8)
        assert sdp.is_feasible(X)

    def test_deflated_laplacian_spectrum(self, ring):
        sdp = SpectralSDP.from_graph(ring)
        deflated = np.linalg.eigvalsh(sdp.deflated_laplacian)
        full = np.linalg.eigvalsh(sdp.laplacian)
        # Deflation removes exactly the zero eigenvalue.
        assert np.allclose(deflated, full[1:], atol=1e-10)

    def test_lift_restrict_roundtrip(self, grid, rng):
        sdp = SpectralSDP.from_graph(grid)
        d = grid.num_nodes - 1
        Y = rng.standard_normal((d, d))
        Y = Y @ Y.T
        assert np.allclose(sdp.restrict(sdp.lift(Y)), Y, atol=1e-10)

    def test_feasibility_violations_detect_problems(self, triangle):
        sdp = SpectralSDP.from_graph(triangle)
        bad = np.eye(3) * 2.0  # trace 6, not deflated
        violations = sdp.feasibility_violations(bad)
        assert violations["trace"] > 1.0
        assert violations["deflation"] > 0.1

    def test_density_from_vector(self, rng):
        x = rng.standard_normal(5)
        X = density_from_vector(x)
        assert np.trace(X) == pytest.approx(1.0)
        assert np.linalg.matrix_rank(X) == 1

    def test_normalize_rejects_zero_trace(self):
        with pytest.raises(InvalidParameterError):
            normalize_to_density(np.zeros((3, 3)))


class TestClosedForms:
    def test_entropy_closed_form_is_gibbs(self, ring):
        sdp = SpectralSDP.from_graph(ring)
        Y = GeneralizedEntropy().closed_form(sdp.deflated_laplacian, 2.0)
        values, vectors = np.linalg.eigh(sdp.deflated_laplacian)
        weights = np.exp(-2.0 * values)
        expected = (vectors * (weights / weights.sum())) @ vectors.T
        assert np.allclose(Y, expected, atol=1e-12)

    def test_logdet_closed_form_trace_one(self, barbell):
        sdp = SpectralSDP.from_graph(barbell)
        Y = LogDeterminant().closed_form(sdp.deflated_laplacian, 5.0)
        assert np.trace(Y) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(Y).min() > 0

    def test_pnorm_closed_form_trace_one(self, grid):
        sdp = SpectralSDP.from_graph(grid)
        Y = MatrixPNorm(1.5).closed_form(sdp.deflated_laplacian, 0.8)
        assert np.trace(Y) == pytest.approx(1.0, abs=1e-8)
        assert np.linalg.eigvalsh(Y).min() >= -1e-10

    def test_pnorm_rejects_p_leq_1(self):
        with pytest.raises(InvalidParameterError):
            MatrixPNorm(1.0)

    def test_regularizer_values_and_gradients_consistent(self, rng):
        # Finite-difference check of each gradient.
        d = 6
        Y = rng.standard_normal((d, d))
        Y = Y @ Y.T + 0.5 * np.eye(d)
        Y /= np.trace(Y)
        for regularizer in (GeneralizedEntropy(), LogDeterminant(),
                            MatrixPNorm(1.5)):
            grad = regularizer.gradient(Y)
            direction = rng.standard_normal((d, d))
            direction = (direction + direction.T) / 2
            h = 1e-6
            numeric = (
                regularizer.value(Y + h * direction)
                - regularizer.value(Y - h * direction)
            ) / (2 * h)
            analytic = float(np.tensordot(grad, direction))
            assert numeric == pytest.approx(analytic, rel=1e-3, abs=1e-6)


class TestEquivalenceTheorem:
    """The paper's Section 3.1 correspondence, verified numerically."""

    @pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
    def test_heat_kernel_equivalence(self, ring, t):
        report = verify_heat_kernel(ring, t)
        assert_equivalence(report, atol=1e-9)
        assert report.kkt_residual < 1e-8

    @pytest.mark.parametrize("gamma", [0.05, 0.3, 0.8])
    def test_pagerank_equivalence(self, barbell, gamma):
        report = verify_pagerank(barbell, gamma)
        assert_equivalence(report, atol=1e-9)
        assert report.kkt_residual < 1e-7

    @pytest.mark.parametrize("alpha,k", [(0.5, 1), (0.6, 4), (0.9, 10)])
    def test_lazy_walk_equivalence(self, grid, alpha, k):
        report = verify_lazy_walk(grid, alpha, k)
        assert_equivalence(report, atol=1e-9)
        assert report.kkt_residual < 1e-7

    def test_all_three_on_several_graphs(self, lollipop, planted):
        for graph in (lollipop, planted):
            for report in verify_all(graph):
                assert report.diffusion_vs_closed_form < 1e-9

    def test_independent_solver_agrees(self, triangle, ring):
        for report in verify_all(ring, run_solver=True):
            assert report.solver_vs_closed_form < 1e-6

    def test_densities_feasible(self, whiskered):
        sdp = SpectralSDP.from_graph(whiskered)
        for X in (
            heat_kernel_density(sdp, 2.0),
            pagerank_density(sdp, 0.2),
            lazy_walk_density(sdp, 0.6, 5),
        ):
            assert sdp.is_feasible(X, tol=1e-7)

    def test_lazy_walk_requires_half_alpha(self, ring):
        sdp = SpectralSDP.from_graph(ring)
        with pytest.raises(InvalidParameterError):
            lazy_walk_density(sdp, 0.3, 5)

    def test_eta_maps_consistent(self, barbell):
        # The η(γ) map must make the closed form reproduce the diffusion.
        sdp = SpectralSDP.from_graph(barbell)
        gamma = 0.25
        eta, mu = eta_for_pagerank(sdp, gamma)
        assert mu == pytest.approx(gamma / (1 - gamma))
        Y = LogDeterminant().closed_form(sdp.deflated_laplacian, eta)
        assert np.allclose(sdp.lift(Y), pagerank_density(sdp, gamma),
                           atol=1e-9)

    def test_unregularized_limit_heat(self, barbell):
        # t → ∞: the heat-kernel density approaches the rank-one optimum.
        sdp = SpectralSDP.from_graph(barbell)
        optimum, lam2 = sdp.exact_solution()
        X = heat_kernel_density(sdp, 5000.0)
        assert np.linalg.norm(X - optimum) < 1e-6

    def test_heavily_regularized_limit_heat(self, ring):
        # t → 0: maximally mixed on the deflated space.
        sdp = SpectralSDP.from_graph(ring)
        X = heat_kernel_density(sdp, 1e-8)
        n = ring.num_nodes
        mixed = sdp.lift(np.eye(n - 1) / (n - 1))
        assert np.linalg.norm(X - mixed) < 1e-6


class TestSolvers:
    def test_simplex_projection_properties(self, rng):
        for _ in range(10):
            v = rng.standard_normal(8) * 3
            p = simplex_projection(v)
            assert p.sum() == pytest.approx(1.0)
            assert np.all(p >= 0)

    def test_simplex_projection_fixed_point(self):
        p = np.array([0.2, 0.3, 0.5])
        assert np.allclose(simplex_projection(p), p)

    def test_spectrahedron_projection_feasible(self, rng):
        M = rng.standard_normal((6, 6))
        M = (M + M.T) / 2
        Y = spectrahedron_projection(M)
        assert np.trace(Y) == pytest.approx(1.0)
        assert np.linalg.eigvalsh(Y).min() >= -1e-12

    def test_projected_gradient_matches_closed_form_entropy(self, triangle):
        sdp = SpectralSDP.from_graph(triangle)
        regularizer = GeneralizedEntropy()
        eta = 1.5
        closed = regularizer.closed_form(sdp.deflated_laplacian, eta)
        result = projected_gradient(
            sdp.deflated_laplacian, regularizer, eta, max_iterations=20_000,
            tol=1e-13,
        )
        assert np.linalg.norm(result.solution - closed) < 1e-4

    def test_mirror_descent_objective_decreases(self, ring):
        sdp = SpectralSDP.from_graph(ring)
        result = mirror_descent(
            sdp.deflated_laplacian, MatrixPNorm(1.5), 1.0, max_iterations=200
        )
        history = result.objective_history
        assert history[-1] <= history[0] + 1e-12

    def test_kkt_residual_large_for_nonoptimal(self, ring):
        sdp = SpectralSDP.from_graph(ring)
        d = ring.num_nodes - 1
        uniform = np.eye(d) / d
        residual = kkt_stationarity_residual(
            sdp.deflated_laplacian, GeneralizedEntropy(), 2.0, uniform
        )
        optimal = GeneralizedEntropy().closed_form(sdp.deflated_laplacian, 2.0)
        residual_opt = kkt_stationarity_residual(
            sdp.deflated_laplacian, GeneralizedEntropy(), 2.0, optimal
        )
        assert residual > 10 * residual_opt
