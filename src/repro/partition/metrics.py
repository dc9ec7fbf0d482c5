"""Cut-quality metrics: conductance, expansion, and friends.

Equation (6) of the paper defines the conductance of a node set ``S``:

    φ(S) = |E(S, S̄)| / min(vol(S), vol(S̄)),

the objective whose intractable minimization (Problem (7)) both the spectral
and flow-based pipelines approximate. Footnote 19 defines the companion
*expansion*; both are implemented here along with the sweep-profile helpers
shared by every partitioner.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import (
    ConvergenceError,
    InvalidParameterError,
    PartitionError,
)


def _validated_mask(graph, nodes):
    mask = graph._node_mask(nodes)
    inside = int(mask.sum())
    if inside == 0 or inside == graph.num_nodes:
        raise PartitionError(
            "conductance needs a nonempty proper subset of the nodes"
        )
    return mask


def conductance(graph, nodes):
    """Conductance ``φ(S) = cut(S) / min(vol(S), vol(S̄))`` (Equation (6))."""
    mask = _validated_mask(graph, nodes)
    cut = graph.cut_weight(mask)
    vol_s = float(graph.degrees[mask].sum())
    vol_rest = graph.total_volume - vol_s
    denominator = min(vol_s, vol_rest)
    if denominator <= 0:
        raise PartitionError("conductance undefined: zero-volume side")
    return cut / denominator


def expansion(graph, nodes):
    """Expansion ``α(S) = cut(S) / min(|S|, |S̄|)`` (footnote 19)."""
    mask = _validated_mask(graph, nodes)
    cut = graph.cut_weight(mask)
    inside = int(mask.sum())
    return cut / min(inside, graph.num_nodes - inside)


def cut_and_volumes(graph, nodes):
    """Return ``(cut weight, vol(S), vol(S̄))`` in one pass."""
    mask = _validated_mask(graph, nodes)
    cut = graph.cut_weight(mask)
    vol_s = float(graph.degrees[mask].sum())
    return cut, vol_s, graph.total_volume - vol_s

def balance(graph, nodes):
    """Volume balance ``min(vol(S), vol(S̄)) / vol(V)`` in ``(0, 0.5]``."""
    _, vol_s, vol_rest = cut_and_volumes(graph, nodes)
    return min(vol_s, vol_rest) / graph.total_volume


def graph_conductance_exact(graph):
    """Exact minimum conductance φ(G) by exhaustion (Problem (7)).

    Exponential in ``n``; usable only as a test oracle for ``n <= ~18``.
    """
    n = graph.num_nodes
    if n < 2:
        raise PartitionError("conductance needs at least 2 nodes")
    if n > 18:
        raise PartitionError(
            f"exact conductance is exponential; refusing n={n} > 18"
        )
    best = float("inf")
    best_set = None
    for bits in range(1, (1 << n) - 1):
        members = [i for i in range(n) if bits & (1 << i)]
        # Each split is enumerated twice (S and its complement); keep S
        # containing node 0 to halve the work.
        if 0 not in members:
            continue
        value = conductance(graph, members)
        if value < best:
            best = value
            best_set = members
    return best, np.asarray(best_set, dtype=np.int64)


def cheeger_upper_bound(lambda2):
    """Cheeger: ``φ(G) <= sqrt(2 λ2)`` (the "quadratically good" direction)."""
    return float(np.sqrt(2.0 * max(lambda2, 0.0)))


def cheeger_lower_bound(lambda2):
    """Cheeger: ``φ(G) >= λ2 / 2``."""
    return float(lambda2 / 2.0)


def internal_conductance(graph, nodes, *, method="lanczos", seed=None):
    """Conductance of the best spectral sweep *inside* ``G[S]``.

    The "internal connectivity" half of the paper's Figure 1(c) niceness
    measure: a set whose induced subgraph has high internal conductance is a
    well-knit community; a stringy set has low internal conductance. Returns
    ``inf`` for sets whose induced subgraph cannot be cut (fewer than 2
    nodes), and 0 for disconnected induced subgraphs.
    """
    from repro.partition.spectral import spectral_cut

    subgraph, _ = graph.induced_subgraph(nodes)
    if subgraph.num_nodes < 2:
        return float("inf")
    if not subgraph.is_connected():
        return 0.0
    if np.any(subgraph.degrees <= 0):
        return 0.0
    try:
        result = spectral_cut(subgraph, method=method, seed=seed)
    except (ConvergenceError, InvalidParameterError, PartitionError,
            np.linalg.LinAlgError):
        # Degenerate tiny subgraphs (eigensolver or LAPACK breakdown, no
        # admissible sweep): fall back to exhaustive search. Anything
        # else — a bug, a keyboard interrupt — propagates.
        if subgraph.num_nodes <= 18:
            value, _ = graph_conductance_exact(subgraph)
            return value
        raise
    return result.conductance
