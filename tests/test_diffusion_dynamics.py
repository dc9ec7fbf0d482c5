"""Tests for the three canonical diffusion dynamics (Section 3.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion.heat_kernel import (
    heat_kernel_matrix,
    heat_kernel_vector,
)
from repro.diffusion.lazy_walk import (
    lazy_walk_matrix_power_dense,
    lazy_walk_vector,
)
from repro.diffusion.pagerank import (
    lazy_equivalent_gamma,
    lazy_pagerank_exact,
    pagerank_exact,
    pagerank_resolvent_dense,
)
from repro.diffusion.seeds import (
    degree_seed,
    degree_weighted_indicator_seed,
    indicator_seed,
)
from repro.exceptions import InvalidParameterError


class TestSeeds:
    def test_indicator_sums_to_one(self, ring):
        s = indicator_seed(ring, [0, 3, 7])
        assert s.sum() == pytest.approx(1.0)
        assert np.count_nonzero(s) == 3

    def test_degree_seed_is_stationary(self, ring):
        from repro.graph.matrices import random_walk_matrix

        pi = degree_seed(ring)
        assert np.allclose(random_walk_matrix(ring) @ pi, pi)

    def test_degree_weighted_indicator(self, barbell):
        s = degree_weighted_indicator_seed(barbell, [0, 7])
        assert s.sum() == pytest.approx(1.0)
        # Node 7 is a bridge endpoint with higher degree: more mass.
        assert s[7] > s[0]

    def test_empty_seed_rejected(self, ring):
        with pytest.raises(InvalidParameterError):
            indicator_seed(ring, [])


class TestPageRank:
    def test_exact_solves_resolvent_system(self, ring, rng):
        from repro.diffusion.pagerank import pagerank_operator

        s = rng.random(ring.num_nodes)
        s /= s.sum()
        x = pagerank_exact(ring, 0.2, s)
        op = pagerank_operator(ring, 0.2)
        assert np.allclose(op @ x, 0.2 * s, atol=1e-9)

    def test_mass_conservation(self, whiskered):
        s = indicator_seed(whiskered, [0])
        x = pagerank_exact(whiskered, 0.15, s)
        assert x.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(x >= -1e-12)

    def test_resolvent_dense_row_sums(self, barbell):
        R = pagerank_resolvent_dense(barbell, 0.2)
        # R_gamma maps distributions to distributions: columns sum to 1.
        assert np.allclose(R.sum(axis=0), 1.0)

    def test_gamma_one_limit_is_seed(self, ring):
        s = indicator_seed(ring, [4])
        x = pagerank_exact(ring, 0.999999, s)
        assert np.allclose(x, s, atol=1e-4)

    def test_gamma_zero_limit_is_stationary(self, ring):
        s = indicator_seed(ring, [4])
        x = pagerank_exact(ring, 1e-7, s)
        assert np.allclose(x, degree_seed(ring), atol=1e-4)

    def test_lazy_equivalence_formula(self, ring):
        from repro.graph.matrices import lazy_walk_matrix

        alpha = 0.12
        s = indicator_seed(ring, [0])
        lazy = lazy_pagerank_exact(ring, alpha, s)
        W = lazy_walk_matrix(ring, 0.5).toarray()
        n = ring.num_nodes
        direct = alpha * np.linalg.solve(
            np.eye(n) - (1 - alpha) * W, s
        )
        assert np.allclose(lazy, direct, atol=1e-9)

    def test_lazy_equivalent_gamma_monotone(self):
        gammas = [lazy_equivalent_gamma(a) for a in (0.05, 0.2, 0.5, 0.9)]
        assert gammas == sorted(gammas)
        assert lazy_equivalent_gamma(0.5) == pytest.approx(2 / 3)


class TestHeatKernel:
    def test_lanczos_matches_dense(self, ring, rng):
        s = rng.random(ring.num_nodes)
        for kind in ("normalized", "random_walk"):
            dense = heat_kernel_matrix(ring, 1.3, kind=kind) @ s
            fast = heat_kernel_vector(ring, s, 1.3, kind=kind)
            assert np.allclose(fast, dense, atol=1e-8)

    def test_taylor_matches_lanczos(self, grid, rng):
        s = rng.random(grid.num_nodes)
        a = heat_kernel_vector(grid, s, 2.2, method="taylor")
        b = heat_kernel_vector(grid, s, 2.2, method="lanczos")
        assert np.allclose(a, b, atol=1e-8)

    def test_random_walk_kind_conserves_mass(self, whiskered):
        s = indicator_seed(whiskered, [3])
        h = heat_kernel_vector(whiskered, s, 4.0, kind="random_walk")
        assert h.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(h >= -1e-12)

    def test_long_time_limit_is_stationary(self, ring):
        s = indicator_seed(ring, [0])
        h = heat_kernel_vector(ring, s, 500.0, kind="random_walk")
        assert np.allclose(h, degree_seed(ring), atol=1e-6)

    def test_zero_time_is_identity(self, ring):
        s = indicator_seed(ring, [5])
        h = heat_kernel_vector(ring, s, 0.0, kind="random_walk")
        assert np.allclose(h, s, atol=1e-12)

    def test_semigroup_property(self, barbell):
        s = indicator_seed(barbell, [1])
        once = heat_kernel_vector(
            barbell, heat_kernel_vector(barbell, s, 0.7), 0.8
        )
        combined = heat_kernel_vector(barbell, s, 1.5)
        assert np.allclose(once, combined, atol=1e-8)


class TestLazyWalk:
    def test_matches_dense_power(self, ring):
        s = indicator_seed(ring, [2])
        for k in (0, 1, 5):
            dense = lazy_walk_matrix_power_dense(ring, k, alpha=0.5) @ s
            fast = lazy_walk_vector(ring, s, k, alpha=0.5)
            assert np.allclose(fast, dense, atol=1e-12)

    def test_conserves_mass_and_nonnegative(self, whiskered):
        s = indicator_seed(whiskered, [0])
        out = lazy_walk_vector(whiskered, s, 20, alpha=0.5)
        assert out.sum() == pytest.approx(1.0)
        assert np.all(out >= 0)

    def test_converges_to_stationary(self, barbell):
        s = indicator_seed(barbell, [0])
        out = lazy_walk_vector(barbell, s, 5000, alpha=0.5)
        assert np.allclose(out, degree_seed(barbell), atol=1e-5)
