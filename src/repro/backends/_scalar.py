"""The ``scalar`` backend: node-at-a-time Python reference loops.

These are the original pre-batching kernels (the FIFO ACL push, the
one-column heat-kernel series, the per-node walk spread, the incremental
sweep scan).  They are slow but transparent, and the parity oracle family
every vectorized backend is measured against.
"""

from __future__ import annotations

import numpy as np

from repro.backends._common import seed_vector
from repro.diffusion.hk_push import heat_kernel_push
from repro.diffusion.push import approximate_ppr_push


def ppr_grid(graph, seed_nodes, *, alphas, epsilons):
    """Yield one PPR column per (seed, alpha, epsilon), one push at a time."""
    for seed_node in seed_nodes:
        vector = seed_vector(graph, seed_node)
        for alpha in alphas:
            for epsilon in epsilons:
                push = approximate_ppr_push(
                    graph, vector, alpha=alpha, epsilon=epsilon
                )
                yield push.approximation


def hk_grid(graph, seed_nodes, *, ts, epsilons):
    """Yield one heat-kernel column per (seed, t, epsilon), one at a time."""
    for seed_node in seed_nodes:
        vector = seed_vector(graph, seed_node)
        for t in ts:
            for epsilon in epsilons:
                push = heat_kernel_push(graph, vector, t, epsilon=epsilon)
                yield push.approximation


def ppr_push(graph, seed_vec, *, alpha, epsilon, max_pushes=None):
    """Single-column ACL push (the sequential FIFO queue reference)."""
    return approximate_ppr_push(
        graph, seed_vec, alpha=alpha, epsilon=epsilon, max_pushes=max_pushes
    )


def hk_push(graph, seed_vec, t, *, epsilon):
    """Single-column heat-kernel push (one-column series recursion)."""
    return heat_kernel_push(graph, seed_vec, t, epsilon=epsilon)


def walk_step(graph, charge, support, *, alpha):
    """One lazy-walk spread step, one support node at a time."""
    degrees = graph.degrees
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    new_charge = alpha * charge
    for u in support:
        flow = (1.0 - alpha) * charge[u] / degrees[u]
        start, stop = indptr[u], indptr[u + 1]
        for k in range(start, stop):
            new_charge[indices[k]] += flow * weights[k]
    return new_charge


def prefix_scan(graph, order, max_size, max_volume, min_size):
    """Reference prefix-conductance scan: one node at a time.

    Kept as the parity oracle for the vectorized scan (and for
    instructional clarity — it is the loop the incremental-update analysis
    in the sweep module docstring describes).
    """
    degrees = graph.degrees
    total_volume = graph.total_volume
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    in_prefix = np.zeros(graph.num_nodes, dtype=bool)
    cut = 0.0
    volume = 0.0
    best = (float("inf"), -1, 0.0)
    profile = np.full(max_size, np.inf)
    for position in range(max_size):
        if position + 1 >= graph.num_nodes:
            break  # the full node set is not a valid cut
        u = int(order[position])
        du = degrees[u]
        internal = 0.0
        for k in range(indptr[u], indptr[u + 1]):
            if in_prefix[indices[k]]:
                internal += weights[k]
        cut += du - 2.0 * internal
        volume += du
        in_prefix[u] = True
        if max_volume is not None and volume > max_volume:
            break
        other = total_volume - volume
        if other <= 0:
            break
        denominator = min(volume, other)
        if denominator > 0:
            phi = cut / denominator
            profile[position] = phi
            if position + 1 >= min_size and phi < best[0]:
                best = (phi, position, volume)
    return profile, best
