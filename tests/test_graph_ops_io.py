"""Tests for graph operations, bipartite utilities, and I/O."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import DisconnectedGraphError, GraphError
from repro.graph import ops
from repro.graph.bipartite import (
    community_bipartite_graph,
    is_bipartite,
    project_left,
)
from repro.graph.build import from_edges
from repro.graph.generators import cycle_graph, path_graph
from repro.graph.io import (
    read_edge_list,
    read_json,
    write_edge_list,
    write_json,
)


def to_networkx(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_nodes))
    g.add_weighted_edges_from(graph.edges())
    return g


class TestOps:

    def test_aspl_matches_networkx(self, ring):
        ours = ops.average_shortest_path_length(ring)
        theirs = nx.average_shortest_path_length(to_networkx(ring))
        assert ours == pytest.approx(theirs)

    def test_aspl_path_graph(self):
        g = path_graph(4)
        # Pairs: 1+2+3 + 1+2 + 1 = 10 over 6 pairs.
        assert ops.average_shortest_path_length(g) == pytest.approx(10 / 6)

    def test_aspl_sampled_sources(self, grid):
        exact = ops.average_shortest_path_length(grid)
        sampled = ops.average_shortest_path_length(grid, sources=range(0, 64, 4))
        assert sampled == pytest.approx(exact, rel=0.2)

    def test_aspl_disconnected_raises(self):
        g = from_edges(4, [(0, 1)])
        with pytest.raises(DisconnectedGraphError):
            ops.average_shortest_path_length(g, sources=[2])

    def test_diameter_matches_networkx(self, lollipop):
        assert ops.diameter(lollipop) == nx.diameter(to_networkx(lollipop))

    def test_eccentricity(self):
        g = path_graph(5)
        assert ops.eccentricity(g, 0) == 4
        assert ops.eccentricity(g, 2) == 2

    def test_triangle_count_matches_networkx(self, planted):
        ours = ops.triangle_count(planted)
        theirs = sum(nx.triangles(to_networkx(planted)).values()) // 3
        assert ours == theirs

    def test_relabel_preserves_structure(self, small_path):
        perm = np.array([5, 4, 3, 2, 1, 0])
        g = ops.relabel(small_path, perm)
        assert g.has_edge(5, 4)
        assert g.degrees[0] == 1  # old node 5

    def test_relabel_rejects_non_permutation(self, triangle):
        with pytest.raises(GraphError):
            ops.relabel(triangle, [0, 0, 1])


class TestBipartite:

    def test_is_bipartite_detects_odd_cycle(self):
        flag, _ = is_bipartite(cycle_graph(5))
        assert not flag
        flag, coloring = is_bipartite(cycle_graph(6))
        assert flag
        assert coloring is not None

    def test_generator_output_is_bipartite(self):
        g, _, _ = community_bipartite_graph(50, 80, 4, seed=1)
        flag, coloring = is_bipartite(g)
        assert flag

    def test_projection_weights_count_common_papers(self):
        # Two papers, both written by authors 0 and 1.
        g = from_edges(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
        co = project_left(g, 2)
        assert co.edge_weight(0, 1) == 2.0

    def test_generator_deterministic(self):
        a = community_bipartite_graph(40, 60, 3, seed=9)[0]
        b = community_bipartite_graph(40, 60, 3, seed=9)[0]
        assert a == b

    def test_community_structure_present(self):
        g, authors, papers = community_bipartite_graph(
            100, 200, 4, seed=2, crossover_probability=0.02
        )
        # Authors of one community plus its papers should cut few edges.
        community0_authors = [
            a for a, c in enumerate(authors) if 0 in c and len(c) == 1
        ]
        community0_papers = [
            100 + p for p in range(200) if papers[p] == 0
        ]
        cluster = community0_authors + community0_papers
        if 0 < len(cluster) < g.num_nodes:
            from repro.partition.metrics import conductance

            phi = conductance(g, cluster)
            assert phi < 0.5


class TestIO:
    def test_edge_list_roundtrip(self, weighted_triangle, tmp_path):
        target = tmp_path / "g.tsv"
        write_edge_list(weighted_triangle, target)
        rebuilt = read_edge_list(target)
        assert rebuilt == weighted_triangle

    def test_edge_list_unweighted(self, ring, tmp_path):
        target = tmp_path / "g.tsv"
        write_edge_list(ring, target, write_weights=False)
        rebuilt = read_edge_list(target)
        assert rebuilt == ring

    def test_edge_list_explicit_num_nodes(self, tmp_path):
        target = tmp_path / "g.tsv"
        target.write_text("0\t1\n", encoding="utf-8")
        g = read_edge_list(target, num_nodes=5)
        assert g.num_nodes == 5

    def test_edge_list_bad_line_raises(self, tmp_path):
        target = tmp_path / "g.tsv"
        target.write_text("0 1 2 3\n", encoding="utf-8")
        with pytest.raises(GraphError, match="expected"):
            read_edge_list(target)

    def test_edge_list_unparseable_raises(self, tmp_path):
        target = tmp_path / "g.tsv"
        target.write_text("a b\n", encoding="utf-8")
        with pytest.raises(GraphError, match="unparseable"):
            read_edge_list(target)

    def test_json_roundtrip(self, weighted_triangle, tmp_path):
        target = tmp_path / "g.json"
        write_json(weighted_triangle, target)
        assert read_json(target) == weighted_triangle

    def test_json_missing_keys(self):
        from repro.graph.io import from_json_document

        with pytest.raises(GraphError):
            from_json_document({"edges": []})

    def test_negative_id_raises_with_location(self, tmp_path):
        target = tmp_path / "g.tsv"
        target.write_text("# header\n0\t1\n2\t-3\n", encoding="utf-8")
        with pytest.raises(GraphError, match=r"g\.tsv:3: negative node id"):
            read_edge_list(target)

    def test_negative_first_column_raises(self, tmp_path):
        target = tmp_path / "g.tsv"
        target.write_text("-1\t4\n", encoding="utf-8")
        with pytest.raises(GraphError, match="node ids must be >= 0"):
            read_edge_list(target)

    def test_mixed_column_counts(self, tmp_path):
        # 2- and 3-column lines in one file exercise the slow-path parse.
        target = tmp_path / "g.tsv"
        target.write_text("0 1\n1 2 2.5\n", encoding="utf-8")
        g = read_edge_list(target)
        assert g.num_edges == 2
        assert g.edge_weight(1, 2) == 2.5

    def test_comments_and_blanks_between_chunks(self, tmp_path):
        target = tmp_path / "g.tsv"
        target.write_text(
            "# a\n\n0\t1\n# b\n\n1\t2\n# trailing\n", encoding="utf-8"
        )
        g = read_edge_list(target)
        assert g.num_edges == 2

    def test_duplicate_weighted_lines_sum_in_file_order(self, tmp_path):
        target = tmp_path / "g.tsv"
        target.write_text(
            "0 1 0.1\n2 1 0.7\n1 0 0.2\n0 1 0.3\n1 2 1.5\n",
            encoding="utf-8",
        )
        g = read_edge_list(target)
        assert g.num_edges == 2
        # Float addition is not associative: file order is what counts.
        assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
        assert g.edge_weight(0, 1) == (0.1 + 0.2) + 0.3
        assert g.edge_weight(1, 0) == (0.1 + 0.2) + 0.3
        assert g.edge_weight(1, 2) == 0.7 + 1.5
        assert g.indices.dtype == np.int64 and g.weights.dtype == np.float64

    def test_integral_float_ids_accepted(self, tmp_path):
        target = tmp_path / "g.tsv"
        target.write_text("0.0\t1.0\t2.0\n", encoding="utf-8")
        g = read_edge_list(target)
        assert g.num_edges == 1 and g.edge_weight(0, 1) == 2.0

    def test_chunked_read_matches_small_blocks(self, planted, tmp_path,
                                               monkeypatch):
        # Force many tiny chunks through the streaming parser and check
        # the result is identical to a one-chunk parse.
        from repro.graph import io as io_mod

        target = tmp_path / "g.tsv"
        write_edge_list(planted, target)
        one_chunk = read_edge_list(target)
        monkeypatch.setattr(io_mod, "_READ_BLOCK_BYTES", 64)
        many_chunks = read_edge_list(target)
        assert one_chunk == many_chunks == planted

    def test_streamed_write_matches_small_blocks(self, planted, tmp_path,
                                                 monkeypatch):
        from repro.graph import io as io_mod

        big = tmp_path / "big.tsv"
        write_edge_list(planted, big)
        monkeypatch.setattr(io_mod, "_WRITE_BLOCK_EDGES", 7)
        small = tmp_path / "small.tsv"
        write_edge_list(planted, small)
        assert big.read_bytes() == small.read_bytes()

    def test_error_line_number_in_later_chunk(self, tmp_path, monkeypatch):
        from repro.graph import io as io_mod

        monkeypatch.setattr(io_mod, "_READ_BLOCK_BYTES", 8)
        target = tmp_path / "g.tsv"
        target.write_text("0\t1\n1\t2\n2\t3\nbad line x y\n",
                          encoding="utf-8")
        with pytest.raises(GraphError, match=r"g\.tsv:4"):
            read_edge_list(target)
