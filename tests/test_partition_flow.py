"""Tests for max-flow, MQI, flow-improve, and the multilevel partitioner."""

from __future__ import annotations

import importlib

import networkx as nx
import numpy as np
import pytest
from scipy.sparse.csgraph import maximum_flow

from repro.exceptions import FlowError, PartitionError
from repro.graph.build import from_edges, union_disjoint
from repro.graph.generators import (
    barbell_graph,
    lollipop_graph,
    ring_of_cliques,
)
from repro.partition.flow_improve import dilate, flow_improve
from repro.partition.maxflow import FlowNetwork
from repro.partition.metrics import conductance, graph_conductance_exact
from repro.partition.mqi import mqi, mqi_certificate
from repro.partition.multilevel import (
    contract,
    fm_refine,
    heavy_edge_matching,
    multilevel_bisection,
    recursive_bisection_clusters,
)

# ``repro.partition.mqi`` the module (the package re-exports the function
# under the same name), for its private wave helpers.
mqi_module = importlib.import_module("repro.partition.mqi")
INT32_MAX = 2**31 - 1


class TestMaxFlow:
    def test_textbook_instance(self):
        net = FlowNetwork(6)
        arcs = [(0, 1, 16), (0, 2, 13), (1, 2, 10), (2, 1, 4), (1, 3, 12),
                (3, 2, 9), (2, 4, 14), (4, 3, 7), (3, 5, 20), (4, 5, 4)]
        for u, v, c in arcs:
            net.add_edge(u, v, c)
        result = net.max_flow(0, 5)
        assert result.value == pytest.approx(23.0)  # CLRS example

    def test_duality_on_random_networks(self, rng):
        for trial in range(8):
            n = 8
            net = FlowNetwork(n)
            g = nx.DiGraph()
            for _ in range(20):
                u, v = rng.integers(n, size=2)
                if u == v:
                    continue
                c = float(rng.integers(1, 10))
                net.add_edge(int(u), int(v), c)
                if g.has_edge(int(u), int(v)):
                    g[int(u)][int(v)]["capacity"] += c
                else:
                    g.add_edge(int(u), int(v), capacity=c)
            if not (g.has_node(0) and g.has_node(n - 1)):
                continue
            ours = net.max_flow(0, n - 1)
            theirs = nx.maximum_flow_value(g, 0, n - 1)
            assert ours.value == pytest.approx(theirs)
            # Min-cut capacity equals the flow value.
            side = ours.min_cut_source_side()
            assert ours.cut_capacity(side) == pytest.approx(ours.value)

    def test_undirected_edge_helper(self):
        net = FlowNetwork(3)
        net.add_edge(0, 1, 2.0, reverse_capacity=2.0)
        net.add_edge(1, 2, 1.0)
        assert net.max_flow(0, 2).value == pytest.approx(1.0)

    def test_disconnected_zero_flow(self):
        net = FlowNetwork(4)
        net.add_edge(0, 1, 5)
        net.add_edge(2, 3, 5)
        assert net.max_flow(0, 3).value == 0.0

    def test_same_source_sink_rejected(self):
        net = FlowNetwork(3)
        with pytest.raises(FlowError):
            net.max_flow(1, 1)

    def test_negative_capacity_rejected(self):
        net = FlowNetwork(2)
        with pytest.raises(FlowError):
            net.add_edge(0, 1, -1.0)


class TestMQI:
    def test_improves_to_planted_cut_on_lollipop(self):
        g = lollipop_graph(12, 24)
        result = mqi(g, list(range(10, 36)))
        # The optimal subset is the path: cut 1, vol = 2*24 - 1.
        assert result.conductance == pytest.approx(1 / 47)
        assert result.conductance < result.initial_conductance

    def test_matches_exact_on_small_graphs(self):
        # Starts chosen with vol <= vol(G)/2 that contain the optimal set.
        for graph, start in [
            (lollipop_graph(5, 6), list(range(4, 11))),
            (barbell_graph(4, 4), list(range(0, 6))),
        ]:
            exact_value, _ = graph_conductance_exact(graph)
            result = mqi(graph, start)
            # MQI is optimal only among subsets of the start, so it can't
            # beat the global optimum, and on these instances it finds it.
            assert result.conductance >= exact_value - 1e-12
            assert result.conductance == pytest.approx(exact_value)

    def test_fixed_point_is_subset_optimal(self, ring):
        result = mqi(ring, list(range(10)))
        base, best_random = mqi_certificate(ring, result.nodes, seed=3)
        assert base <= best_random + 1e-12

    def test_never_worsens(self, whiskered, rng):
        for _ in range(5):
            k = int(rng.integers(4, 20))
            side = rng.choice(whiskered.num_nodes, size=k, replace=False)
            if whiskered.degrees[side].sum() > whiskered.total_volume / 2:
                continue
            result = mqi(whiskered, side)
            assert result.conductance <= result.initial_conductance + 1e-12

    def test_history_strictly_decreasing(self):
        g = lollipop_graph(10, 20)
        result = mqi(g, list(range(8, 30)))
        history = [result.initial_conductance] + result.history
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_volume_precondition(self, ring):
        big = list(range(ring.num_nodes - 3))
        with pytest.raises(PartitionError, match="vol"):
            mqi(ring, big)

    def test_duplicate_ids_do_not_inflate_the_volume(self):
        g = lollipop_graph(12, 24)
        side = list(range(10, 36))
        result = mqi(g, side + list(range(10, 15)))
        assert np.array_equal(result.nodes, mqi(g, side).nodes)

    def test_duplicate_ids_are_not_repeated_in_the_result(self):
        g = lollipop_graph(12, 24)
        result = mqi(g, list(range(20, 36)) + [20, 21])
        assert np.array_equal(result.nodes, np.arange(20, 36))
        assert result.initial_conductance == pytest.approx(
            conductance(g, np.arange(20, 36))
        )


def _reweighted_lollipop(weight_of):
    """``lollipop_graph(12, 24)`` with edge ``{u, v}`` weighted
    ``weight_of(u, v)``."""
    base = lollipop_graph(12, 24)
    edges = [(u, v) for u, v, _w in base.edges()]
    return from_edges(
        base.num_nodes, edges, [float(weight_of(u, v)) for u, v in edges]
    )


@pytest.fixture
def solver_calls(monkeypatch):
    """Record what each MQI wave hands to the compiled union solve and to
    the :class:`FlowNetwork` fallback, while still running both."""
    calls = {"union": [], "float": []}
    solve_union = mqi_module._solve_union
    float_round = mqi_module._float_round

    def spy_union(network, *rest):
        calls["union"].append(network)
        return solve_union(network, *rest)

    def spy_float(graph, side):
        calls["float"].append(side)
        return float_round(graph, side)

    monkeypatch.setattr(mqi_module, "_solve_union", spy_union)
    monkeypatch.setattr(mqi_module, "_float_round", spy_float)
    return calls


def _one_block(graph, side):
    """One wave over a single side: ``(phi, improved)``."""
    phis, improved = mqi_module._wave(graph, [side])
    return phis[0], improved[0]


def _wide_ring():
    """``ring_of_cliques(6, 5)`` with every edge weighted 5e6."""
    base = ring_of_cliques(6, 5)
    edges = [(u, v) for u, v, _w in base.edges()]
    return from_edges(base.num_nodes, edges, [5e6] * len(edges))


_WIDE_SIDE = np.array([0, 1, 4, 5, 6, 9, 11, 14, 17, 18, 21, 23, 25])


class TestCompiledMQIRound:
    """The compiled wave (one integer union network, scipy Dinic) against
    the :class:`FlowNetwork` round, which stays as the per-block
    fallback."""

    def test_non_integer_weights_take_the_fallback(self, solver_calls):
        g = _reweighted_lollipop(
            lambda u, v: 1.5 if (u + v) % 3 == 0 else 1.0
        )
        side = np.arange(10, 36)
        expected = mqi_module._float_round(g, side)
        solver_calls["float"].clear()
        phi, improved = _one_block(g, side)
        assert solver_calls["union"] == []
        assert len(solver_calls["float"]) == 1
        assert phi == conductance(g, side)
        assert np.array_equal(improved, expected)
        assert np.array_equal(improved, np.arange(12, 36))

    def test_capacity_beyond_int32_takes_the_fallback(self, solver_calls):
        g = _reweighted_lollipop(lambda u, v: 10**6 * (1 + (u + v) % 3))
        side = np.arange(10, 36)
        # Every weight and degree fits in int32; only V·w does not, and
        # scipy would wrap that capacity silently.
        assert g.degrees.max() <= INT32_MAX
        expected = mqi_module._float_round(g, side)
        solver_calls["float"].clear()
        phi, improved = _one_block(g, side)
        assert solver_calls["union"] == []
        assert len(solver_calls["float"]) == 1
        assert phi == conductance(g, side)
        assert np.array_equal(improved, expected)
        assert np.array_equal(improved, np.arange(12, 36))

    def test_total_flow_beyond_int32_stays_compiled(self, solver_calls):
        g = _wide_ring()
        side = _WIDE_SIDE
        expected = mqi_module._float_round(g, side)
        solver_calls["float"].clear()
        _phi, improved = _one_block(g, side)
        assert solver_calls["float"] == []
        (network,) = solver_calls["union"]
        assert network.data.max() <= INT32_MAX
        solved = maximum_flow(
            network, side.size, side.size + 1, method="dinic"
        )
        assert solved.flow_value > INT32_MAX
        assert improved is not None
        assert np.array_equal(improved, expected)

    def test_zero_cut_side_is_already_optimal(self, solver_calls):
        two_triangles = from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        side = np.array([0, 1, 2])
        phi, improved = _one_block(two_triangles, side)
        assert solver_calls == {"union": [], "float": []}
        assert phi == 0.0
        assert improved is None
        assert mqi_module._float_round(two_triangles, side) is None

    def test_mixed_wave_gives_each_block_its_own_result(self, solver_calls):
        integer = lollipop_graph(12, 24)
        fractional = _reweighted_lollipop(
            lambda u, v: 1.5 if (u + v) % 3 == 0 else 1.0
        )
        triangles = from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        g = union_disjoint(union_disjoint(integer, fractional), triangles)
        shift = integer.num_nodes
        sides = [
            np.arange(10, 36),
            shift + np.arange(10, 36),
            2 * shift + np.array([0, 1, 2]),
        ]
        phis, improved = mqi_module._wave(g, sides)
        # One compiled solve holds only the integer block; the fractional
        # block alone takes the fallback; the zero-cut block takes neither.
        (network,) = solver_calls["union"]
        assert network.shape == (sides[0].size + 2,) * 2
        assert len(solver_calls["float"]) == 1
        assert np.array_equal(solver_calls["float"][0], sides[1])
        for side, phi, better in zip(sides, phis, improved):
            alone_phi, alone = _one_block(g, side)
            assert phi == alone_phi == conductance(g, side)
            assert (better is None) == (alone is None)
            if better is not None:
                assert np.array_equal(better, alone)
        assert np.array_equal(improved[0], np.arange(12, 36))
        assert np.array_equal(improved[1], shift + np.arange(12, 36))
        assert improved[2] is None
        waves = mqi_module._mqi_waves(g, sides, max_rounds=100)
        for side, result in zip(sides, waves):
            alone = mqi(g, side)
            assert np.array_equal(result.nodes, alone.nodes)
            assert result.history == alone.history
            assert result.conductance == alone.conductance
            assert result.initial_conductance == alone.initial_conductance
            assert result.converged and alone.converged

    def test_source_capacity_beyond_int32_across_blocks(self, solver_calls):
        ring = _wide_ring()
        g = union_disjoint(ring, ring)
        sides = [_WIDE_SIDE, ring.num_nodes + _WIDE_SIDE]
        _phis, improved = mqi_module._wave(g, sides)
        assert solver_calls["float"] == []
        (network,) = solver_calls["union"]
        source = network.shape[0] - 2
        out = network.data[network.indptr[source]:network.indptr[source + 1]]
        assert out.astype(np.int64).sum() > INT32_MAX
        for side, better in zip(sides, improved):
            _phi, alone = _one_block(g, side)
            assert alone is not None
            assert np.array_equal(better, alone)
        assert np.array_equal(improved[1] - ring.num_nodes, improved[0])


    def test_wave_groups_bound_each_union(self, solver_calls, whiskered,
                                          monkeypatch):
        rng = np.random.default_rng(5)
        sides = [
            mqi_module._checked_side(whiskered, rng.choice(
                whiskered.num_nodes, size=size, replace=False,
            ))
            for size in rng.integers(3, 30, size=12)
        ]
        whole = mqi_module._mqi_waves(whiskered, sides, max_rounds=100)
        whole_solves = len(solver_calls["union"])
        monkeypatch.setattr(mqi_module, "_WAVE_ARCS", 64)
        solver_calls["union"].clear()
        grouped = mqi_module._mqi_waves(whiskered, sides, max_rounds=100)
        assert len(solver_calls["union"]) > whole_solves
        # A group holds at most 64 gathered arcs, or a single side.
        limit = max(64, max(
            int(np.diff(whiskered.indptr)[side].sum()) for side in sides
        ))
        for network in solver_calls["union"]:
            source = network.shape[0] - 2
            fed = network.indptr[source + 1] - network.indptr[source]
            assert network.nnz - source - fed <= limit
        for alone, wave in zip(whole, grouped):
            assert np.array_equal(alone.nodes, wave.nodes)
            assert alone.history == wave.history
            assert alone.initial_conductance == wave.initial_conductance


class TestFlowImprove:
    def test_dilate_radius_zero_is_identity(self, ring):
        base = np.array([0, 1, 2])
        assert np.array_equal(dilate(ring, base, 0), base)

    def test_dilate_grows_by_neighborhood(self, ring):
        grown = dilate(ring, [0], 1)
        expected = {0} | {int(v) for v in ring.neighbors(0)}
        assert set(grown.tolist()) == expected

    def test_improves_partial_whisker(self, whiskered):
        # Half a whisker: dilation lets flow find the full whisker cut.
        base = list(range(40, 43))
        result = flow_improve(whiskered, base, dilation_radius=3)
        assert result.conductance <= result.initial_conductance + 1e-12

    def test_never_worse_than_input(self, ring, rng):
        for _ in range(4):
            k = int(rng.integers(3, 10))
            side = rng.choice(ring.num_nodes, size=k, replace=False)
            result = flow_improve(ring, side, dilation_radius=1)
            assert result.conductance <= conductance(ring, side) + 1e-12


class TestMultilevel:
    def test_matching_is_valid(self, whiskered, rng):
        match = heavy_edge_matching(whiskered, rng)
        for u in range(whiskered.num_nodes):
            v = int(match[u])
            assert int(match[v]) == u  # involution
            if v != u:
                assert whiskered.has_edge(u, v)

    def test_contract_preserves_volume_and_cutweight(self, ring, rng):
        match = heavy_edge_matching(ring, rng)
        coarse, volumes, mapping = contract(ring, ring.degrees.copy(), match)
        assert volumes.sum() == pytest.approx(ring.total_volume)
        assert coarse.num_nodes < ring.num_nodes
        # Total coarse edge weight = fine weight minus contracted weight.
        fine_total = sum(w for *_e, w in ring.edges())
        contracted = sum(
            ring.edge_weight(u, int(match[u])) for u in range(ring.num_nodes)
            if int(match[u]) > u
        )
        coarse_total = sum(w for *_e, w in coarse.edges())
        assert coarse_total == pytest.approx(fine_total - contracted)

    def test_fm_refine_never_increases_cut(self, planted, rng):
        mask = rng.random(planted.num_nodes) < 0.5
        if not mask.any() or mask.all():
            mask[0] = ~mask[0]
        before = planted.cut_weight(mask)
        refined = fm_refine(planted, planted.degrees.copy(), mask)
        after = planted.cut_weight(refined)
        assert after <= before + 1e-9

    def test_bisection_finds_planted_cut(self):
        g = ring_of_cliques(6, 8)
        result = multilevel_bisection(g, seed=0)
        # Best balanced cut severs 2 bridges on each side: cut weight 4,
        # but any 3-clique side with cut 2+2 = 4 / vol(side); allow near.
        assert result.conductance < 0.05

    def test_bisection_on_barbell(self):
        result = multilevel_bisection(barbell_graph(12), seed=1)
        assert result.cut_weight == pytest.approx(1.0)

    def test_recursive_clusters_multiscale(self):
        g = ring_of_cliques(8, 8)
        clusters = recursive_bisection_clusters(g, min_size=4, seed=2)
        sizes = sorted({len(c) for c in clusters})
        assert len(sizes) >= 3  # clusters at several scales
        assert min(sizes) >= 4

    def test_recursive_clusters_are_valid_node_sets(self, whiskered):
        clusters = recursive_bisection_clusters(whiskered, min_size=4, seed=3)
        for cluster in clusters:
            assert len(set(cluster.tolist())) == cluster.size
            assert cluster.min() >= 0
            assert cluster.max() < whiskered.num_nodes
