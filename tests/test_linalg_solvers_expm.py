"""Tests for iterative solvers, expm action, and Fiedler drivers."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import (
    ConvergenceError,
    DisconnectedGraphError,
    InvalidParameterError,
)
from repro.graph.build import from_edges
from repro.graph.matrices import (
    combinatorial_laplacian,
    normalized_laplacian,
)
from repro.linalg.expm import (
    expm_action_lanczos,
    expm_action_taylor,
    heat_kernel_dense,
    taylor_terms_for_tolerance,
)
from repro.linalg.fiedler import (
    fiedler_embedding,
    fiedler_pair,
    fiedler_value,
    fiedler_vector,
)
from repro.linalg.solvers import (
    chebyshev,
    conjugate_gradient,
    gauss_seidel,
    jacobi,
    richardson,
)


@pytest.fixture
def spd_system(ring, rng):
    A = (
        normalized_laplacian(ring)
        + 0.4 * sparse.identity(ring.num_nodes, format="csr")
    ).tocsr()
    b = rng.standard_normal(ring.num_nodes)
    exact = np.linalg.solve(A.toarray(), b)
    return A, b, exact


class TestSolvers:
    def test_cg_matches_direct(self, spd_system):
        A, b, exact = spd_system
        result = conjugate_gradient(A, b, tol=1e-12)
        assert result.converged
        assert np.allclose(result.solution, exact, atol=1e-8)

    def test_cg_singular_consistent(self, ring, rng):
        # Combinatorial Laplacian with mean-zero rhs: consistent singular.
        L = combinatorial_laplacian(ring)
        b = rng.standard_normal(ring.num_nodes)
        b -= b.mean()
        result = conjugate_gradient(L, b, tol=1e-10)
        assert np.linalg.norm(L @ result.solution - b) < 1e-7

    def test_jacobi_matches_direct(self, spd_system):
        A, b, exact = spd_system
        result = jacobi(A, b, tol=1e-11, max_iterations=50_000)
        assert np.allclose(result.solution, exact, atol=1e-6)

    def test_gauss_seidel_matches_direct(self, spd_system):
        A, b, exact = spd_system
        result = gauss_seidel(A, b, tol=1e-11, max_iterations=50_000)
        assert np.allclose(result.solution, exact, atol=1e-6)

    def test_gauss_seidel_faster_than_jacobi(self, spd_system):
        A, b, _ = spd_system
        gs = gauss_seidel(A, b, tol=1e-10, max_iterations=50_000)
        ja = jacobi(A, b, tol=1e-10, max_iterations=50_000)
        assert gs.iterations <= ja.iterations

    def test_richardson_matches_direct(self, spd_system):
        A, b, exact = spd_system
        result = richardson(
            A, b, step_size=0.7, tol=1e-11, max_iterations=50_000
        )
        assert np.allclose(result.solution, exact, atol=1e-6)

    def test_chebyshev_matches_direct(self, spd_system):
        A, b, exact = spd_system
        result = chebyshev(
            A, b, eigenvalue_bounds=(0.4, 2.4), tol=1e-11,
            max_iterations=50_000,
        )
        assert np.allclose(result.solution, exact, atol=1e-6)

    def test_chebyshev_beats_richardson(self, spd_system):
        A, b, _ = spd_system
        cheb = chebyshev(A, b, eigenvalue_bounds=(0.4, 2.4), tol=1e-10)
        rich = richardson(A, b, step_size=0.7, tol=1e-10)
        assert cheb.iterations < rich.iterations

    def test_residual_history_decreasing_cg(self, spd_system):
        A, b, _ = spd_system
        result = conjugate_gradient(A, b, tol=1e-12)
        # CG residuals aren't strictly monotone but must collapse overall.
        assert result.residual_history[-1] < result.residual_history[0]

    def test_nonconvergence_raises(self, spd_system):
        A, b, _ = spd_system
        with pytest.raises(ConvergenceError):
            jacobi(A, b, tol=1e-14, max_iterations=2)

    def test_jacobi_needs_nonzero_diagonal(self, rng):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidParameterError):
            jacobi(A, np.ones(2))


class TestExpmAction:
    def test_taylor_matches_dense(self, ring, rng):
        L = normalized_laplacian(ring)
        v = rng.standard_normal(ring.num_nodes)
        expected = heat_kernel_dense(L, 1.7) @ v
        got = expm_action_taylor(L, v, 1.7, spectral_bound=2.0, tol=1e-14)
        assert np.allclose(got, expected, atol=1e-10)

    def test_lanczos_matches_dense(self, grid, rng):
        L = normalized_laplacian(grid)
        v = rng.standard_normal(grid.num_nodes)
        expected = heat_kernel_dense(L, 0.9) @ v
        got = expm_action_lanczos(L, v, 0.9, num_steps=50)
        assert np.allclose(got, expected, atol=1e-8)

    def test_t_zero_is_identity(self, ring, rng):
        L = normalized_laplacian(ring)
        v = rng.standard_normal(ring.num_nodes)
        got = expm_action_taylor(L, v, 0.0, spectral_bound=2.0)
        assert np.allclose(got, v)

    def test_terms_bound_is_sufficient(self):
        terms = taylor_terms_for_tolerance(3.0, 2.0, 1e-12)
        # Remainder of exp(6) series after `terms` terms must be < 1e-12.
        x, term, k, tail = 6.0, 1.0, 0, 0.0
        for k in range(1, terms + 1):
            term *= x / k
        remainder_est = term * 2  # geometric tail bound (ratio <= 1/2)
        assert remainder_est <= 1e-10

    def test_truncated_series_biases_toward_seed(self, ring):
        # Aggressive truncation (1 term) returns (I - tL)v: closer to the
        # seed than the converged kernel.
        L = normalized_laplacian(ring)
        v = np.zeros(ring.num_nodes)
        v[0] = 1.0
        rough = expm_action_taylor(L, v, 2.0, spectral_bound=2.0, num_terms=1)
        full = expm_action_taylor(L, v, 2.0, spectral_bound=2.0, tol=1e-14)
        assert np.linalg.norm(rough - v) < np.linalg.norm(full - v) + 2.0

    def test_zero_vector_lanczos(self, ring):
        L = normalized_laplacian(ring)
        out = expm_action_lanczos(L, np.zeros(ring.num_nodes), 1.0)
        assert np.all(out == 0)


class TestFiedler:
    def test_methods_agree(self, barbell):
        lam_exact, x_exact = fiedler_pair(barbell, method="exact")
        for method in ("lanczos", "power"):
            lam, x = fiedler_pair(barbell, method=method, seed=0)
            assert lam == pytest.approx(lam_exact, abs=1e-7)
            assert min(
                np.linalg.norm(x - x_exact), np.linalg.norm(x + x_exact)
            ) < 1e-5

    def test_fiedler_value_positive_for_connected(self, ring):
        assert fiedler_value(ring, method="exact") > 0

    def test_disconnected_raises(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            fiedler_vector(g, method="exact")

    def test_orthogonal_to_trivial(self, lollipop):
        from repro.graph.matrices import trivial_eigenvector

        x = fiedler_vector(lollipop, method="exact")
        assert abs(x @ trivial_eigenvector(lollipop)) < 1e-10

    def test_embedding_separates_barbell(self, barbell):
        y = fiedler_embedding(barbell, method="exact")
        left, right = y[:8], y[8:]
        # The two cliques sit on opposite sides of the embedding.
        assert max(left.max(), right.max()) > 0 > min(left.min(), right.min())
        assert (left.max() < right.min()) or (right.max() < left.min())

    def test_path_fiedler_monotone(self):
        # On a path, the Fiedler embedding is monotone along the path.
        from repro.graph.generators import path_graph

        y = fiedler_embedding(path_graph(12), method="exact")
        diffs = np.diff(y)
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_invalid_method(self, triangle):
        with pytest.raises(InvalidParameterError):
            fiedler_pair(triangle, method="qr")

    def test_deterministic_sign(self, grid):
        a = fiedler_vector(grid, method="exact")
        b = fiedler_vector(grid, method="exact")
        assert np.allclose(a, b)
