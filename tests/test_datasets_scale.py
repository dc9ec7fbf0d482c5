"""Tests for the scale-tier generators and the fast component helpers."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

import repro.graph.build as build
from repro.datasets import (
    SCALE_SUITE,
    describe,
    lfr_graph,
    load_any_graph,
    load_graph,
    rmat_graph,
    suite_names,
)
from repro.datasets.suite import UnknownGraphError
from repro.exceptions import EmptyGraphError, GraphError, InvalidParameterError
from repro.graph.build import (
    connected_component_labels,
    from_edges,
    induced_subgraph_fast,
    largest_component_fast,
    union_disjoint,
)


class TestRmat:
    def test_basic_shape(self):
        g = rmat_graph(10, seed=0)
        assert 0 < g.num_nodes <= 1 << 10
        # edge_factor=16 slots minus dups/self-loops/compaction.
        assert g.num_edges > 4 * (1 << 10)

    def test_deterministic(self):
        a = rmat_graph(9, seed=42)
        b = rmat_graph(9, seed=42)
        assert a == b

    def test_seed_changes_graph(self):
        a = rmat_graph(9, seed=1)
        b = rmat_graph(9, seed=2)
        assert a != b

    def test_keep_all_retains_isolated(self):
        g = rmat_graph(8, edge_factor=1, seed=0, keep="all")
        assert g.num_nodes == 1 << 8

    def test_largest_component_is_connected(self):
        g = rmat_graph(9, edge_factor=2, seed=3)
        assert g.is_connected()

    def test_heavy_tail(self):
        g = rmat_graph(12, seed=5)
        degrees = np.diff(g.indptr)
        # The R-MAT quadrant skew makes hubs far above the mean.
        assert degrees.max() > 10 * degrees.mean()

    def test_bad_probabilities_raise(self):
        with pytest.raises(InvalidParameterError, match="must be < 1"):
            rmat_graph(5, a=0.6, b=0.3, c=0.3)

    def test_bad_keep_raises(self):
        with pytest.raises(InvalidParameterError, match="keep"):
            rmat_graph(5, keep="most")

    def test_build_peak_stays_near_the_graph_it_returns(self):
        # The build holds the edge keys and the one CSR it returns, not a
        # second CSR or int64 copies of the sampled endpoints.
        tracemalloc.start()
        try:
            graph = rmat_graph(14, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        graph_bytes = sum(
            array.nbytes for array in (
                graph.indptr, graph.indices, graph.weights, graph.degrees
            )
        )
        assert peak <= 2.5 * graph_bytes


class TestLfr:
    def test_basic_shape(self):
        g = lfr_graph(2000, mu=0.2, seed=0)
        assert g.num_nodes <= 2000
        assert g.num_edges > 2000  # min_degree 8 before pair drops

    def test_deterministic(self):
        a = lfr_graph(1000, mu=0.3, seed=11)
        b = lfr_graph(1000, mu=0.3, seed=11)
        assert a == b

    def test_communities_returned_and_aligned(self):
        g, labels = lfr_graph(
            2000, mu=0.1, seed=4, return_communities=True
        )
        assert labels.shape == (g.num_nodes,)
        assert labels.min() >= 0

    def test_mixing_parameter_controls_internal_fraction(self):
        low_mu, low_labels = lfr_graph(
            3000, mu=0.1, seed=7, return_communities=True
        )
        high_mu, high_labels = lfr_graph(
            3000, mu=0.6, seed=7, return_communities=True
        )

        def internal_fraction(graph, labels):
            us, vs, _ = graph.edge_array()
            return float((labels[us] == labels[vs]).mean())

        assert (internal_fraction(low_mu, low_labels)
                > internal_fraction(high_mu, high_labels) + 0.2)

    def test_bad_mu_raises(self):
        with pytest.raises(InvalidParameterError):
            lfr_graph(100, mu=1.5)

    def test_bad_exponent_raises(self):
        with pytest.raises(InvalidParameterError, match="degree_exponent"):
            lfr_graph(100, degree_exponent=0.5)


class TestScaleSuite:
    def test_names_disjoint_from_reference_suite(self):
        assert not set(SCALE_SUITE) & set(suite_names())

    def test_reference_listing_excludes_scale(self):
        # suite_names() feeds eager listings; scale graphs must not be
        # built by anything that enumerates it.
        assert "rmat-16" not in suite_names()

    def test_registry_metadata(self):
        spec = SCALE_SUITE["rmat-14"]
        assert spec.approx_nodes == 1 << 14
        assert "R-MAT" in spec.role

    def test_load_graph_builds_scale_names(self):
        g = load_graph("rmat-14", seed=1)
        assert g.num_edges > 100_000
        assert g == load_any_graph("rmat-14", seed=1)

    def test_describe_covers_both_tiers(self):
        assert "R-MAT" in describe("rmat-14")
        assert describe("barbell")
        assert "LFR" in describe("lfr-50k")

    def test_unknown_scale_name_hints(self):
        with pytest.raises(UnknownGraphError, match="rmat-14"):
            load_graph("rmat-13")


class TestFastComponentHelpers:
    def cases(self):
        rng = np.random.default_rng(0)
        graphs = []
        for n in (1, 2, 13, 40, 120):
            for p in (0.0, 0.01, 0.05, 0.2):
                m = rng.random((n, n)) < p
                edges = np.argwhere(np.triu(m, k=1)).reshape(-1, 2)
                graphs.append(from_edges(n, edges))
                weights = rng.random(edges.shape[0]) + 0.5
                graphs.append(from_edges(n, edges, weights))
        return graphs

    def test_labels_match_bfs(self):
        for g in self.cases():
            fast_labels, fast_count = connected_component_labels(g)
            slow_labels, slow_count = g.connected_components()
            assert fast_count == slow_count
            assert np.array_equal(fast_labels, slow_labels)

    def test_largest_component_matches_bfs(self):
        for g in self.cases():
            fast, fast_ids = largest_component_fast(g)
            slow, slow_ids = g.largest_component()
            assert np.array_equal(fast_ids, slow_ids)
            assert fast == slow
            assert np.array_equal(fast.degrees, slow.degrees)

    def test_induced_subgraph_matches_slow(self):
        g = union_disjoint(
            from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
            from_edges(3, [(0, 1), (1, 2)]),
            bridge_edges=[(0, 0)],
        )
        mask = np.zeros(g.num_nodes, dtype=bool)
        mask[[0, 1, 3, 4, 5]] = True
        fast, fast_ids = induced_subgraph_fast(g, mask)
        slow, slow_ids = g.induced_subgraph(np.flatnonzero(mask))
        assert np.array_equal(fast_ids, slow_ids)
        assert fast == slow

    def test_connected_graph_comes_back_unchanged(self):
        g = rmat_graph(9, seed=3)
        same, ids = largest_component_fast(g)
        assert same is g
        assert np.array_equal(ids, np.arange(g.num_nodes))

    def test_empty_graph_raises(self):
        with pytest.raises(EmptyGraphError):
            largest_component_fast(from_edges(0, []))

    def test_tie_break_matches_bfs(self):
        # Two equal-size components: both paths pick the first-discovered.
        g = union_disjoint(
            from_edges(3, [(0, 1), (1, 2)]),
            from_edges(3, [(0, 1), (1, 2)]),
        )
        fast, fast_ids = largest_component_fast(g)
        slow, slow_ids = g.largest_component()
        assert np.array_equal(fast_ids, slow_ids)


class TestFromEdgesDtypes:
    EDGES = [(3, 1), (0, 2), (2, 4), (1, 3), (4, 0), (2, 0)]

    @pytest.mark.parametrize("dtype", [
        np.int32, np.uint32, np.uint64, np.int16, np.float64, np.float32,
    ])
    @pytest.mark.parametrize("combine", ["sum", "max"])
    def test_every_id_dtype_builds_the_int64_bytes(self, dtype, combine):
        want = from_edges(5, np.array(self.EDGES, dtype=np.int64),
                          combine=combine)
        got = from_edges(5, np.array(self.EDGES, dtype=dtype),
                         combine=combine)
        assert got == want
        assert got.indices.dtype == want.indices.dtype == np.int64

    @pytest.mark.parametrize("edges, message", [
        (np.array([[0, -1]], dtype=np.int16), r"must lie in \[0, 5\)"),
        (np.array([[-3, 1]], dtype=np.int32), r"must lie in \[0, 5\)"),
        (np.array([[0, 5]], dtype=np.uint32), r"must lie in \[0, 5\)"),
        (np.array([[0, 2**63]], dtype=np.uint64), r"must lie in \[0, 5\)"),
        (np.array([[2**64 - 1, 1]], dtype=np.uint64),
         r"must lie in \[0, 5\)"),
        (np.array([[0, -1.0]]), r"must lie in \[0, 5\)"),
        (np.array([[2, 2]], dtype=np.uint64), "self-loops are not allowed"),
        (np.array([[1, 1]], dtype=np.int16), "self-loops are not allowed"),
        (np.array([[0, 1.5]]), "edge endpoints must be integers"),
    ])
    def test_bad_ids_raise_the_same_errors(self, edges, message):
        with pytest.raises(GraphError, match=message):
            from_edges(5, edges)


def test_file_graph_is_compacted_with_one_label_pass(tmp_path, monkeypatch):
    path = tmp_path / "two_parts.tsv"
    path.write_text("0\t1\n1\t2\n3\t4\n4\t5\n5\t6\n", encoding="utf-8")
    calls = []
    component_labels = build._component_labels

    def spy(*args):
        calls.append(args[0])
        return component_labels(*args)

    monkeypatch.setattr(build, "_component_labels", spy)
    with pytest.warns(UserWarning, match="kept the largest component"):
        graph = load_any_graph(str(path))
    assert calls == [7]
    assert graph.num_nodes == 4

    path.write_text("0\t1\n1\t2\n", encoding="utf-8")
    calls.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        graph = load_any_graph(str(path))
    assert calls == [3]
    assert graph.num_nodes == 3
