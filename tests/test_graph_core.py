"""Unit tests for the Graph data structure and builders."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import EmptyGraphError, GraphError
from repro.graph.build import (
    empty_graph,
    from_edges,
    union_disjoint,
)
from repro.graph.graph import Graph


class TestFromEdges:
    def test_simple_triangle(self):
        g = from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert g.total_volume == 6.0

    def test_endpoint_order_is_irrelevant(self):
        a = from_edges(4, [(0, 1), (2, 1)])
        b = from_edges(4, [(1, 0), (1, 2)])
        assert a == b

    def test_duplicate_edges_sum_by_default(self):
        g = from_edges(2, [(0, 1), (1, 0)], [2.0, 3.0])
        assert g.edge_weight(0, 1) == 5.0
        assert g.num_edges == 1

    def test_duplicate_edges_max(self):
        g = from_edges(2, [(0, 1), (1, 0)], [2.0, 3.0], combine="max")
        assert g.edge_weight(0, 1) == 3.0

    def test_duplicate_edges_error(self):
        with pytest.raises(GraphError, match="duplicate"):
            from_edges(2, [(0, 1), (1, 0)], combine="error")

    def test_unknown_combine_rejected_without_duplicates(self):
        # Validated up front: a duplicate-free edge list must not let a
        # bad mode through, with or without weights.
        for weights in (None, [2.0, 3.0]):
            with pytest.raises(GraphError, match="unknown combine mode"):
                from_edges(3, [(0, 1), (1, 2)], weights, combine="bogus")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            from_edges(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="lie in"):
            from_edges(2, [(0, 2)])

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphError, match="positive"):
            from_edges(2, [(0, 1)], [-1.0])

    def test_zero_weight_rejected(self):
        with pytest.raises(GraphError, match="positive"):
            from_edges(2, [(0, 1)], [0.0])

    def test_non_integer_endpoints_rejected(self):
        with pytest.raises(GraphError, match="integer"):
            from_edges(3, np.array([[0.5, 1.0]]))

    def test_empty_edge_list(self):
        g = from_edges(4, [])
        assert g.num_nodes == 4
        assert g.num_edges == 0
        assert np.all(g.degrees == 0)

    def test_isolated_trailing_nodes_have_zero_degree(self):
        g = from_edges(5, [(0, 1)])
        assert g.degrees.tolist() == [1.0, 1.0, 0.0, 0.0, 0.0]


class TestGraphAccessors:
    def test_neighbors_sorted(self, barbell):
        for u in range(barbell.num_nodes):
            nbrs = barbell.neighbors(u)
            assert np.all(np.diff(nbrs) > 0)

    def test_degree_matches_incident_weights(self, weighted_triangle):
        g = weighted_triangle
        for u in range(3):
            assert g.degree(u) == pytest.approx(g.incident_weights(u).sum())

    def test_weighted_degrees(self, weighted_triangle):
        # edges: (0,1)=1, (1,2)=2, (0,2)=3
        assert weighted_triangle.degrees.tolist() == [4.0, 3.0, 5.0]

    def test_has_edge(self, small_path):
        assert small_path.has_edge(0, 1)
        assert small_path.has_edge(1, 0)
        assert not small_path.has_edge(0, 2)

    def test_edge_weight_absent_is_zero(self, small_path):
        assert small_path.edge_weight(0, 5) == 0.0

    def test_edges_iterator_each_edge_once(self, barbell):
        edges = list(barbell.edges())
        assert len(edges) == barbell.num_edges
        assert all(u < v for u, v, _ in edges)

    def test_edge_array_matches_iterator(self, ring):
        us, vs, ws = ring.edge_array()
        listed = {(u, v) for u, v, _ in ring.edges()}
        assert set(zip(us.tolist(), vs.tolist())) == listed

    def test_arrays_are_read_only(self, triangle):
        with pytest.raises(ValueError):
            triangle.degrees[0] = 99.0
        with pytest.raises(ValueError):
            triangle.weights[0] = 99.0

    def test_repr_mentions_counts(self, triangle):
        assert "num_nodes=3" in repr(triangle)

    def test_equality_and_hash(self):
        a = from_edges(3, [(0, 1), (1, 2)])
        b = from_edges(3, [(1, 2), (0, 1)])
        c = from_edges(3, [(0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c


class TestSetQuantities:
    def test_volume(self, barbell):
        left = list(range(8))
        # K_8 side: 7*8 internal degree + 1 bridge endpoint
        assert barbell.volume(left) == 7 * 8 + 1

    def test_cut_weight_bridge(self, barbell):
        assert barbell.cut_weight(list(range(8))) == 1.0

    def test_cut_weight_complement_symmetric(self, ring):
        side = list(range(12))
        mask = np.zeros(ring.num_nodes, dtype=bool)
        mask[side] = True
        assert ring.cut_weight(mask) == pytest.approx(ring.cut_weight(~mask))

    def test_edge_boundary_matches_cut_weight(self, lollipop):
        side = list(range(8))
        boundary = lollipop.edge_boundary(side)
        assert sum(w for *_e, w in boundary) == pytest.approx(
            lollipop.cut_weight(side)
        )

    def test_boolean_mask_accepted(self, triangle):
        mask = np.array([True, False, False])
        assert triangle.volume(mask) == 2.0

    def test_bad_mask_shape_rejected(self, triangle):
        with pytest.raises(GraphError):
            triangle.volume(np.array([True, False]))


class TestTraversal:
    def test_bfs_distances_path(self, small_path):
        dist = small_path.bfs_distances(0)
        assert dist.tolist() == [0, 1, 2, 3, 4, 5]

    def test_bfs_max_distance(self, small_path):
        dist = small_path.bfs_distances(0, max_distance=2)
        assert dist.tolist() == [0, 1, 2, -1, -1, -1]

    def test_connected_components_two_pieces(self):
        g = from_edges(5, [(0, 1), (2, 3)])
        labels, count = g.connected_components()
        assert count == 3  # {0,1}, {2,3}, {4}
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[4] not in (labels[0], labels[2])

    def test_is_connected(self, barbell):
        assert barbell.is_connected()
        assert not from_edges(3, [(0, 1)]).is_connected()
        assert not empty_graph(0).is_connected()

    def test_largest_component(self):
        g = from_edges(7, [(0, 1), (1, 2), (3, 4)])
        sub, ids = g.largest_component()
        assert sub.num_nodes == 3
        assert ids.tolist() == [0, 1, 2]

    def test_largest_component_empty_raises(self):
        with pytest.raises(EmptyGraphError):
            empty_graph(0).largest_component()


class TestInducedSubgraph:
    def test_preserves_edges_and_weights(self, weighted_triangle):
        sub, ids = weighted_triangle.induced_subgraph([0, 2])
        assert sub.num_nodes == 2
        assert sub.edge_weight(0, 1) == 3.0
        assert ids.tolist() == [0, 2]

    def test_empty_selection(self, triangle):
        sub, ids = triangle.induced_subgraph([])
        assert sub.num_nodes == 0
        assert ids.size == 0

    def test_full_selection_is_identity(self, ring):
        sub, ids = ring.induced_subgraph(range(ring.num_nodes))
        assert sub == ring

    def test_clique_from_barbell(self, barbell):
        sub, _ = barbell.induced_subgraph(range(8))
        assert sub.num_edges == 8 * 7 // 2


class TestConversions:
    def test_to_dense_symmetric(self, weighted_triangle):
        dense = weighted_triangle.to_dense()
        assert np.allclose(dense, dense.T)
        assert dense[0, 1] == 1.0 and dense[1, 2] == 2.0 and dense[0, 2] == 3.0


class TestUnionDisjoint:
    def test_sizes_add(self, triangle, small_path):
        combined = union_disjoint(triangle, small_path)
        assert combined.num_nodes == 9
        assert combined.num_edges == triangle.num_edges + small_path.num_edges

    def test_bridge_edges(self, triangle, small_path):
        combined = union_disjoint(triangle, small_path, bridge_edges=[(0, 0)])
        assert combined.has_edge(0, 3)
        assert combined.is_connected()


class TestValidationOnConstruction:
    def test_rejects_asymmetric_csr(self):
        indptr = np.array([0, 1, 1])
        indices = np.array([1])
        weights = np.array([1.0])
        with pytest.raises(GraphError, match="symmetric"):
            Graph(indptr, indices, weights)

    def test_rejects_bad_indptr(self):
        with pytest.raises(GraphError):
            Graph(np.array([1, 0]), np.array([]), np.array([]))

    def test_rejects_unsorted_adjacency(self):
        indptr = np.array([0, 2, 3, 4])
        indices = np.array([2, 1, 0, 0])
        weights = np.ones(4)
        with pytest.raises(GraphError, match="sorted"):
            Graph(indptr, indices, weights)


def _reference_from_edges(num_nodes, edges, weights, combine):
    """``from_edges`` spelled out: a dict merged in input order, then rows."""
    merged = {}
    for (u, v), w in zip(edges, weights):
        key = (min(u, v), max(u, v))
        if key not in merged:
            merged[key] = w
        elif combine == "error":
            raise GraphError("duplicate edges present and combine='error'")
        elif combine == "sum":
            merged[key] = merged[key] + w
        else:
            merged[key] = max(merged[key], w)
    rows = [[] for _ in range(num_nodes)]
    for (u, v), w in merged.items():
        rows[u].append((v, w))
        rows[v].append((u, w))
    indptr, indices, arc_weights = [0], [], []
    for row in rows:
        for v, w in sorted(row):
            indices.append(v)
            arc_weights.append(w)
        indptr.append(len(indices))
    return Graph(
        np.array(indptr, dtype=np.int64),
        np.array(indices, dtype=np.int64),
        np.array(arc_weights, dtype=np.float64),
        validate=True,
    )


@st.composite
def _edge_lists(draw):
    """Edge lists on a few nodes: many duplicates, both endpoint orders."""
    n = draw(st.integers(2, 9))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1]
        ),
        max_size=40,
    ))
    kind = draw(st.sampled_from(["none", "unit", "float"]))
    if kind == "none":
        weights = None
    elif kind == "unit":
        weights = [1.0] * len(pairs)
    else:
        # Decimal fractions make float sums depend on their order.
        weight = st.one_of(
            st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0]),
            st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False),
        )
        weights = draw(st.lists(
            weight, min_size=len(pairs), max_size=len(pairs)
        ))
    return n + draw(st.integers(0, 2)), pairs, weights


class TestFromEdgesMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(_edge_lists(), st.sampled_from(["sum", "max", "error"]))
    def test_bitwise_equal_to_dict_reference(self, case, combine):
        num_nodes, pairs, weights = case
        reference_weights = [1.0] * len(pairs) if weights is None else weights
        try:
            expected = _reference_from_edges(
                num_nodes, pairs, reference_weights, combine
            )
        except GraphError:
            with pytest.raises(GraphError, match="duplicate"):
                from_edges(num_nodes, pairs, weights, combine=combine)
            return
        graph = from_edges(num_nodes, pairs, weights, combine=combine)
        for name in ("indptr", "indices", "weights"):
            got, want = getattr(graph, name), getattr(expected, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name


def _reference_validation_error(indptr, indices, weights):
    """The CSR checks of ``Graph._validate`` as a per-node loop."""
    n = len(indptr) - 1
    rows = [
        list(zip(indices[indptr[u]:indptr[u + 1]],
                 weights[indptr[u]:indptr[u + 1]]))
        for u in range(n)
    ]
    for u, row in enumerate(rows):
        ids = [v for v, _ in row]
        if u in ids:
            return f"self-loop at node {u} is not allowed"
        if any(b <= a for a, b in zip(ids, ids[1:])):
            return (f"adjacency of node {u} must be strictly sorted "
                    "(no parallel edges)")
    arcs = {(u, v): w for u, row in enumerate(rows) for v, w in row}
    if any(arcs.get((v, u)) != w for (u, v), w in arcs.items()):
        return "adjacency structure is not symmetric"
    return None


@st.composite
def _csr_arrays(draw):
    """Small CSR arrays, mostly malformed: loops, unsorted, asymmetric."""
    n = draw(st.integers(1, 6))
    rows = [
        draw(st.lists(st.integers(0, n - 1), max_size=4)) for _ in range(n)
    ]
    if draw(st.booleans()):
        # Symmetrize and sort, so valid graphs and late failures occur too.
        pairs = {(u, v) for u, row in enumerate(rows) for v in row}
        pairs |= {(v, u) for u, v in pairs}
        rows = [sorted(v for w, v in pairs if w == u) for u in range(n)]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.array([v for row in rows for v in row], dtype=np.int64)
    weights = np.array(
        draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=indices.size,
                      max_size=indices.size)),
        dtype=np.float64,
    )
    return indptr, indices, weights


class TestValidateMatchesLoopReference:
    @settings(max_examples=300, deadline=None)
    @given(_csr_arrays())
    def test_same_verdict_and_message(self, arrays):
        expected = _reference_validation_error(*arrays)
        if expected is None:
            Graph(*arrays)
        else:
            with pytest.raises(GraphError) as info:
                Graph(*arrays)
            assert str(info.value) == expected
