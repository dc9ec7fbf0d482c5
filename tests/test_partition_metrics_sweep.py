"""Tests for conductance metrics and sweep cuts."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import PartitionError
from repro.graph.generators import (
    barbell_graph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from repro.partition.metrics import (
    cheeger_lower_bound,
    cheeger_upper_bound,
    conductance,
    graph_conductance_exact,
    internal_conductance,
)
from repro.partition.sweep import sweep_cut


def to_networkx(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_nodes))
    g.add_weighted_edges_from(graph.edges())
    return g


class TestConductance:
    def test_matches_networkx(self, ring):
        side = list(range(13))
        ours = conductance(ring, side)
        theirs = nx.conductance(to_networkx(ring), side, weight="weight")
        assert ours == pytest.approx(theirs)

    def test_symmetric_in_complement(self, lollipop):
        side = list(range(9))
        other = [u for u in range(lollipop.num_nodes) if u not in side]
        assert conductance(lollipop, side) == pytest.approx(
            conductance(lollipop, other)
        )

    def test_barbell_bridge_value(self):
        g = barbell_graph(6)
        # cut = 1, vol(side) = 6*5 + 1 = 31.
        assert conductance(g, range(6)) == pytest.approx(1 / 31)

    def test_cycle_arc(self):
        g = cycle_graph(10)
        assert conductance(g, range(5)) == pytest.approx(2 / 10)

    def test_empty_or_full_rejected(self, triangle):
        with pytest.raises(PartitionError):
            conductance(triangle, [])
        with pytest.raises(PartitionError):
            conductance(triangle, [0, 1, 2])


class TestExactConductance:
    def test_path_graph(self):
        # Best cut of a path splits at an end edge of the half: for P4,
        # cutting into {0,1} | {2,3} costs 1 with min vol 3.
        g = path_graph(4)
        value, members = graph_conductance_exact(g)
        assert value == pytest.approx(1 / 3)

    def test_complete_graph_value(self):
        # K_6: any split has conductance >= ~0.6; best is the half split.
        g = complete_graph(6)
        value, members = graph_conductance_exact(g)
        assert len(members) == 3
        assert value == pytest.approx(9 / 15)

    def test_barbell_exact_is_bridge(self):
        g = barbell_graph(5)
        value, members = graph_conductance_exact(g)
        assert sorted(members) == [0, 1, 2, 3, 4]
        assert value == pytest.approx(1 / 21)

    def test_refuses_large_graphs(self, whiskered):
        with pytest.raises(PartitionError):
            graph_conductance_exact(whiskered)


class TestCheegerBounds:
    def test_bounds_sandwich_exact_optimum(self):
        from repro.linalg.fiedler import fiedler_value

        for graph in (barbell_graph(5), cycle_graph(12), path_graph(10)):
            lam2 = fiedler_value(graph, method="exact")
            phi, _ = graph_conductance_exact(graph)
            assert cheeger_lower_bound(lam2) <= phi + 1e-10
            assert phi <= cheeger_upper_bound(lam2) + 1e-10


class TestSweepCut:
    def test_finds_planted_cut_on_barbell(self, barbell):
        from repro.linalg.fiedler import fiedler_embedding

        y = fiedler_embedding(barbell, method="exact")
        result = sweep_cut(barbell, y, degree_normalize=False)
        assert result.size == 8  # one clique
        assert result.conductance == pytest.approx(1 / 57)

    def test_profile_matches_direct_evaluation(self, ring, rng):
        scores = rng.random(ring.num_nodes)
        result = sweep_cut(ring, scores, degree_normalize=False)
        for k in (1, 5, 10, 20):
            prefix = result.order[:k]
            assert result.profile[k - 1] == pytest.approx(
                conductance(ring, prefix)
            )

    def test_restriction_respected(self, ring, rng):
        scores = rng.random(ring.num_nodes)
        allowed = np.arange(10)
        result = sweep_cut(
            ring, scores, degree_normalize=False, restrict_to=allowed
        )
        assert set(result.nodes.tolist()) <= set(allowed.tolist())

    def test_max_volume_cap(self, ring, rng):
        scores = rng.random(ring.num_nodes)
        result = sweep_cut(
            ring, scores, degree_normalize=False, max_volume=30.0
        )
        assert result.volume <= 30.0

    def test_min_size_respected(self, barbell, rng):
        scores = rng.random(barbell.num_nodes)
        result = sweep_cut(
            barbell, scores, degree_normalize=False, min_size=5
        )
        assert result.size >= 5

    def test_degree_normalization_changes_order(self, lollipop):
        # A vector proportional to degree: normalized sweep is uniform
        # (ties), unnormalized puts clique nodes first.
        scores = lollipop.degrees.astype(float)
        unnormalized = sweep_cut(lollipop, scores, degree_normalize=False)
        assert set(unnormalized.order[:4].tolist()) <= set(range(8))

    def test_empty_restriction_rejected(self, ring, rng):
        with pytest.raises(PartitionError):
            sweep_cut(ring, rng.random(ring.num_nodes),
                      restrict_to=np.array([], dtype=np.int64))


class TestInternalConductance:
    def test_clique_is_well_knit(self, barbell):
        phi_internal = internal_conductance(barbell, range(8))
        assert phi_internal > 0.4  # a clique has high internal conductance

    def test_path_cluster_is_stringy(self, lollipop):
        tail = list(range(8, 20))
        phi_internal = internal_conductance(lollipop, tail)
        # A path's internal conductance is tiny.
        assert phi_internal < 0.35

    def test_disconnected_cluster_zero(self, ring):
        # Two nodes from different cliques with no edge.
        assert internal_conductance(ring, [0, 12]) == 0.0

    def test_singleton_infinite(self, ring):
        assert internal_conductance(ring, [0]) == float("inf")
