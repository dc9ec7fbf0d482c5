"""Tests for spectral cuts, local clustering drivers, and MOV."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamics import HeatKernel, LazyWalk, PPR
from repro.exceptions import InvalidParameterError
from repro.graph.generators import roach_graph
from repro.graph.random_generators import whiskered_expander
from repro.partition.local import best_local_cluster, local_cluster
from repro.partition.metrics import conductance
from repro.partition.mov import kappa_for_gamma, mov_cluster, mov_vector
from repro.partition.spectral import cheeger_certificate, spectral_cut


class TestSpectralCut:
    def test_barbell_planted_cut(self, barbell):
        result = spectral_cut(barbell, method="exact")
        assert result.conductance == pytest.approx(1 / 57)
        assert result.nodes.size == 8

    def test_cheeger_certificate_holds_everywhere(
        self, barbell, lollipop, ring, grid, roach, expander, planted
    ):
        for graph in (barbell, lollipop, ring, grid, roach, expander,
                      planted):
            low, phi, high = cheeger_certificate(graph)
            assert low <= phi <= high

    def test_spectral_bisection_fails_on_roach(self):
        # Guattery–Miller [21]: the combinatorial-Laplacian median bisection
        # of the roach cuts all body rungs (φ = Θ(1)) while the optimal
        # bisection severs the antennae at cost 2 (φ → 0 as k grows).
        from repro.partition.spectral import spectral_bisection_median

        for k in (8, 16, 24):
            g = roach_graph(k, k)
            _, phi_bisect = spectral_bisection_median(
                g, laplacian="combinatorial"
            )
            length = 2 * k
            antennae = list(range(k, length)) + list(
                range(length + k, 2 * length)
            )
            antenna_phi = conductance(g, antennae)
            assert phi_bisect > 3.0 * antenna_phi

    def test_roach_gap_grows_with_size(self):
        # The bisection/optimal ratio grows linearly in k — the quadratic
        # Cheeger factor is saturated, not an artifact of the analysis.
        from repro.partition.spectral import spectral_bisection_median

        ratios = []
        for k in (8, 16, 32):
            g = roach_graph(k, k)
            _, phi_bisect = spectral_bisection_median(
                g, laplacian="combinatorial"
            )
            length = 2 * k
            antennae = list(range(k, length)) + list(
                range(length + k, 2 * length)
            )
            ratios.append(phi_bisect / conductance(g, antennae))
        assert ratios[0] < ratios[1] < ratios[2]

    def test_iterative_methods_match_exact(self, ring):
        exact = spectral_cut(ring, method="exact")
        lanczos = spectral_cut(ring, method="lanczos", seed=0)
        assert lanczos.conductance == pytest.approx(
            exact.conductance, rel=1e-6
        )


class TestLocalClustering:
    def test_acl_recovers_whisker(self, whiskered):
        result = local_cluster(
            whiskered, [44], PPR(alpha=0.05), epsilon=1e-5
        )
        # Whisker 0 occupies 40..44; its cut is a single edge: φ = 1/9.
        assert result.conductance <= 1 / 9 + 1e-9
        assert set(result.nodes.tolist()) >= {40, 41, 42, 43, 44}

    def test_acl_recovers_clique_in_ring(self, ring):
        # Cap the sweep volume at one clique's volume so the local scale is
        # selected (the global half-ring cut is slightly better otherwise).
        result = local_cluster(
            ring, [2], PPR(alpha=0.1), epsilon=1e-6, max_volume=33.0
        )
        assert set(result.nodes.tolist()) == set(range(6))

    def test_nibble_recovers_clique_in_ring(self, ring):
        result = local_cluster(ring, [2], "nibble", epsilon=1e-5)
        # Nibble's best sweep is at least as good as the single clique.
        assert result.conductance <= conductance(ring, range(6)) + 1e-9

    def test_hk_recovers_clique_in_ring(self, ring):
        result = local_cluster(
            ring, [2], HeatKernel(t=4.0), epsilon=1e-6, max_volume=33.0
        )
        assert set(result.nodes.tolist()) == set(range(6))

    def test_max_volume_respected(self, ring):
        result = local_cluster(
            ring, [0], PPR(alpha=0.1), epsilon=1e-6, max_volume=40.0
        )
        assert ring.volume(result.nodes) <= 40.0

    def test_best_local_cluster_picks_minimum(self, ring):
        best = best_local_cluster(ring, [2])
        for dynamics in ("acl", "nibble", "hk"):
            single = local_cluster(ring, [2], dynamics)
            assert best.conductance <= single.conductance + 1e-9

    def test_grid_valued_spec_rejected(self, ring):
        with pytest.raises(InvalidParameterError):
            local_cluster(ring, [0], PPR(alpha=(0.05, 0.15)))

    def test_unknown_dynamics_rejected(self, ring):
        with pytest.raises(InvalidParameterError):
            local_cluster(ring, [0], "landing")

    def test_point_specs_carry_their_local_method(self, ring):
        for spec, method in ((PPR(alpha=0.05), "acl"),
                             (HeatKernel(t=4.0), "hk"),
                             (LazyWalk(steps=12), "nibble")):
            result = local_cluster(ring, [2], spec, epsilon=1e-5)
            assert result.method == method

    def test_walk_name_uses_graph_sized_default_steps(self, ring):
        from repro.dynamics import get_dynamics

        by_name = local_cluster(ring, [2], "nibble", epsilon=1e-5)
        by_spec = local_cluster(
            ring, [2], get_dynamics("walk").local_spec(ring), epsilon=1e-5
        )
        assert np.array_equal(by_name.nodes, by_spec.nodes)
        assert by_name.conductance == by_spec.conductance
        assert by_name.work == by_spec.work

    def test_walk_point_spec_drives_nibble(self, ring):
        by_spec = local_cluster(ring, [2], LazyWalk(steps=40), epsilon=1e-5)
        assert by_spec.method == "nibble"
        assert by_spec.work > 0

    def test_work_accounting_positive(self, ring):
        result = local_cluster(ring, [0], PPR(alpha=0.1), epsilon=1e-4)
        assert result.work > 0
        assert result.num_pushes if hasattr(result, "num_pushes") else True

    def test_locality_work_independent_of_core_size(self):
        works = []
        for core in (64, 256):
            g = whiskered_expander(core, 4, 4, 6, seed=2)
            result = local_cluster(
                g, [core], PPR(alpha=0.2), epsilon=1e-3
            )
            works.append(result.work)
        assert works[1] < 4 * works[0] + 200


class TestMOV:
    def test_vector_orthogonal_to_trivial(self, ring):
        from repro.graph.matrices import trivial_eigenvector

        x, gamma = mov_vector(ring, [0, 1], gamma_fraction=0.5)
        assert abs(x @ trivial_eigenvector(ring)) < 1e-8
        assert np.linalg.norm(x) == pytest.approx(1.0)

    def test_cluster_biased_toward_seed(self, ring):
        result = mov_cluster(ring, [0, 1, 2], gamma_fraction=0.3)
        overlap = len(set(result.nodes.tolist()) & set(range(6)))
        assert overlap >= 3

    def test_gamma_near_lambda2_recovers_global(self, barbell):
        from repro.linalg.fiedler import fiedler_vector

        result = mov_cluster(barbell, [0], gamma_fraction=0.999)
        global_vec = fiedler_vector(barbell, method="exact")
        alignment = abs(result.vector @ global_vec)
        assert alignment > 0.99

    def test_very_negative_gamma_recovers_seed(self, ring):
        x, _ = mov_vector(ring, [0], gamma=-1e5)
        # The solution concentrates on the seed's projected indicator.
        assert int(np.argmax(np.abs(x))) == 0

    def test_correlation_monotone_in_gamma(self, ring):
        rows = kappa_for_gamma(ring, [0], [-10.0, -1.0, 0.01])
        correlations = [r[1] for r in rows]
        assert correlations[0] >= correlations[-1] - 1e-9

    def test_gamma_above_lambda2_rejected(self, ring):
        with pytest.raises(InvalidParameterError):
            mov_vector(ring, [0], gamma=10.0)

    def test_rayleigh_at_least_lambda2(self, lollipop):
        from repro.linalg.fiedler import fiedler_value

        lam2 = fiedler_value(lollipop, method="exact")
        result = mov_cluster(lollipop, [10], gamma_fraction=0.5)
        assert result.rayleigh >= lam2 - 1e-9
