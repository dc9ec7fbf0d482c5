"""Seed (initial charge) distributions for diffusion dynamics.

Section 3.1: "In each of these cases, there is an input 'seed' distribution
vector". This module serves the local regime of footnote 16: the
indicator vector of a small seed set, so the truncated diffusion stays near
the seeds.
"""

from __future__ import annotations

import numpy as np

from repro._validation import check_node
from repro.exceptions import InvalidParameterError


def indicator_seed(graph, nodes):
    """Probability mass split uniformly over a seed set (sums to 1)."""
    node_list = [check_node(v, graph.num_nodes, "seed node") for v in
                 np.atleast_1d(np.asarray(nodes, dtype=np.int64))]
    if not node_list:
        raise InvalidParameterError("seed set must be nonempty")
    seed = np.zeros(graph.num_nodes)
    seed[node_list] = 1.0 / len(node_list)
    return seed


def degree_seed(graph):
    """Stationary distribution of the natural random walk: ``d / vol(V)``."""
    volume = graph.total_volume
    if volume <= 0:
        raise InvalidParameterError("degree seed needs positive total volume")
    return graph.degrees / volume


def degree_weighted_indicator_seed(graph, nodes):
    """Seed proportional to degree on the seed set: ``d_u / vol(S)`` on S.

    This is the seed used by local-partitioning theory (e.g. ACL), for which
    the stationary distribution restricted to S is the natural start.
    """
    node_list = [check_node(v, graph.num_nodes, "seed node") for v in
                 np.atleast_1d(np.asarray(nodes, dtype=np.int64))]
    if not node_list:
        raise InvalidParameterError("seed set must be nonempty")
    seed = np.zeros(graph.num_nodes)
    degrees = graph.degrees[node_list]
    total = float(degrees.sum())
    if total <= 0:
        raise InvalidParameterError("seed set has zero volume")
    seed[node_list] = degrees / total
    return seed
