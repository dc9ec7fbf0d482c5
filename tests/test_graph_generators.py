"""Tests for deterministic and random graph generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.graph import generators as gen
from repro.graph import random_generators as rgen


class TestDeterministicFamilies:
    def test_path_counts(self):
        g = gen.path_graph(10)
        assert g.num_nodes == 10 and g.num_edges == 9
        assert g.degrees[0] == 1 and g.degrees[5] == 2

    def test_cycle_counts(self):
        g = gen.cycle_graph(7)
        assert g.num_edges == 7
        assert np.all(g.degrees == 2)

    def test_complete_counts(self):
        g = gen.complete_graph(9)
        assert g.num_edges == 36
        assert np.all(g.degrees == 8)

    def test_star(self):
        g = gen.star_graph(5)
        assert g.degrees[0] == 5
        assert np.all(g.degrees[1:] == 1)

    def test_grid_counts(self):
        g = gen.grid_graph(4, 5)
        assert g.num_nodes == 20
        assert g.num_edges == 4 * 4 + 3 * 5  # horizontal + vertical

    def test_barbell_bridge(self):
        g = gen.barbell_graph(6)
        assert g.cut_weight(range(6)) == 1.0
        assert g.is_connected()

    def test_barbell_with_path(self):
        g = gen.barbell_graph(5, 3)
        assert g.num_nodes == 13
        assert g.is_connected()

    def test_lollipop_structure(self):
        g = gen.lollipop_graph(6, 4)
        assert g.num_nodes == 10
        assert g.degrees[9] == 1  # end of the tail
        assert g.cut_weight(range(6)) == 1.0

    def test_roach_structure(self):
        g = gen.roach_graph(4, 4)
        assert g.num_nodes == 16
        assert g.is_connected()
        # Antenna tips have degree 1.
        assert g.degrees[7] == 1 and g.degrees[15] == 1
        # Severing the antennae costs exactly 2 edges.
        antennae = [4, 5, 6, 7, 12, 13, 14, 15]
        assert g.cut_weight(antennae) == 2.0

    def test_ring_of_cliques(self):
        g = gen.ring_of_cliques(4, 5)
        assert g.num_nodes == 20
        assert g.is_connected()
        # One clique is separated by exactly 2 bridge edges.
        assert g.cut_weight(range(5)) == 2.0

    def test_weighted_path(self):
        g = gen.weighted_path_graph([1.0, 2.0, 0.5])
        assert g.edge_weight(1, 2) == 2.0

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            gen.cycle_graph(2)
        with pytest.raises(InvalidParameterError):
            gen.roach_graph(0, 3)
        with pytest.raises(InvalidParameterError):
            gen.weighted_path_graph([])


class TestRandomFamilies:

    def test_random_regular_degrees(self):
        g = rgen.random_regular_graph(50, 6, seed=1)
        assert np.all(g.degrees == 6)

    def test_random_regular_parity_check(self):
        with pytest.raises(InvalidParameterError, match="even"):
            rgen.random_regular_graph(5, 3, seed=0)

    def test_random_regular_degree_bound(self):
        with pytest.raises(InvalidParameterError):
            rgen.random_regular_graph(4, 4, seed=0)

    def test_preferential_attachment_counts(self):
        g = rgen.preferential_attachment_graph(60, 3, seed=4)
        assert g.num_nodes == 60
        assert g.is_connected()
        # Heavy tail: max degree far above m.
        assert g.degrees.max() >= 3 * 3

    def test_powerlaw_cluster_has_triangles(self):
        from repro.graph.ops import triangle_count

        g = rgen.powerlaw_cluster_graph(80, 3, 0.8, seed=5)
        assert triangle_count(g) > 0

    def test_planted_partition_blocks_are_dense(self):
        g = rgen.planted_partition_graph(3, 20, 0.6, 0.01, seed=6)
        inside = g.induced_subgraph(range(20))[0].num_edges
        assert inside > 0.4 * (20 * 19 / 2)

    def test_sbm_respects_zero_probability(self):
        probs = np.array([[0.5, 0.0], [0.0, 0.5]])
        g = rgen.stochastic_block_model([15, 15], probs, seed=7)
        assert g.cut_weight(range(15)) == 0.0

    def test_sbm_probability_validation(self):
        with pytest.raises(InvalidParameterError):
            rgen.stochastic_block_model([5, 5], np.array([[0.5, 1.5], [1.5, 0.5]]))

    def test_forest_fire_connected(self):
        g = rgen.forest_fire_graph(100, 0.3, seed=8)
        assert g.is_connected()
        assert g.num_nodes == 100

    def test_whiskered_expander_structure(self):
        g = rgen.whiskered_expander(30, 4, 5, 4, seed=9)
        assert g.num_nodes == 30 + 5 * 4
        assert g.is_connected()
        # Whisker tips are degree-1.
        assert g.degrees[33] == 1

    def test_noisy_graph_keeps_node_count(self, ring):
        noisy = rgen.noisy_graph(ring, 0.1, seed=10)
        assert noisy.num_nodes == ring.num_nodes
        # Edge count stays within a reasonable band.
        assert abs(noisy.num_edges - ring.num_edges) <= 0.5 * ring.num_edges

    def test_noisy_graph_zero_noise_identity(self, ring):
        assert rgen.noisy_graph(ring, 0.0, seed=1) == ring


class TestGeneratorSeeding:
    @pytest.mark.parametrize("builder", [
        lambda s: rgen.random_regular_graph(30, 4, seed=s),
        lambda s: rgen.preferential_attachment_graph(30, 2, seed=s),
        lambda s: rgen.forest_fire_graph(30, 0.3, seed=s),
        lambda s: rgen.planted_partition_graph(3, 10, 0.5, 0.05, seed=s),
    ])
    def test_deterministic_given_seed(self, builder):
        assert builder(42) == builder(42)

    def test_different_seeds_differ(self):
        a = rgen.planted_partition_graph(3, 10, 0.5, 0.05, seed=1)
        b = rgen.planted_partition_graph(3, 10, 0.5, 0.05, seed=2)
        assert a != b
