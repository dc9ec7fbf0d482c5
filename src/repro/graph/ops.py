"""Whole-graph operations and summary statistics.

Helpers here are shared by the partitioning stack and the niceness measures:
breadth-first distance aggregates, triangle counts, and relabelling, which
do not belong on the :class:`~repro.graph.graph.Graph` class itself.
"""

from __future__ import annotations

import numpy as np

from repro._validation import check_node
from repro.exceptions import DisconnectedGraphError, EmptyGraphError
from repro.graph.build import from_edges


def average_shortest_path_length(graph, *, sources=None):
    """Average hop distance over (sampled) connected node pairs.

    Parameters
    ----------
    graph:
        Must be connected when ``sources`` is ``None``; with explicit
        ``sources`` the average runs over pairs reachable from them.
    sources:
        Optional subset of BFS source nodes, for subsampled estimates on
        large graphs.

    Raises
    ------
    EmptyGraphError
        On graphs with fewer than 2 nodes.
    DisconnectedGraphError
        When no connected pair is reachable from the chosen sources.
    """
    n = graph.num_nodes
    if n < 2:
        raise EmptyGraphError("average path length needs >= 2 nodes")
    if sources is None:
        source_list = range(n)
    else:
        source_list = [check_node(s, n, "source") for s in sources]
    total, pairs = 0.0, 0
    for s in source_list:
        dist = graph.bfs_distances(s)
        reachable = dist > 0
        total += float(dist[reachable].sum())
        pairs += int(reachable.sum())
    if pairs == 0:
        raise DisconnectedGraphError("no connected pairs found")
    return total / pairs


def eccentricity(graph, node):
    """Maximum hop distance from ``node`` to any reachable node."""
    dist = graph.bfs_distances(node)
    reachable = dist[dist >= 0]
    return int(reachable.max())


def diameter(graph, *, sources=None):
    """Hop diameter (exact over all sources, or a lower bound over a sample)."""
    if graph.num_nodes == 0:
        raise EmptyGraphError("diameter of an empty graph")
    source_list = range(graph.num_nodes) if sources is None else sources
    best = 0
    for s in source_list:
        best = max(best, eccentricity(graph, s))
    return best


def relabel(graph, permutation):
    """Apply a node permutation: new id of node ``i`` is ``permutation[i]``."""
    from repro.exceptions import GraphError

    perm = np.asarray(permutation, dtype=np.int64)
    n = graph.num_nodes
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise GraphError(
            f"permutation must be a rearrangement of 0..{n - 1}; "
            f"got shape {perm.shape}"
        )
    us, vs, ws = graph.edge_array()
    if us.size == 0:
        return from_edges(n, [], [])
    return from_edges(n, np.stack([perm[us], perm[vs]], axis=1), ws)
