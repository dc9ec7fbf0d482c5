"""The ``numpy`` backend: vectorized reference kernels.

These are the batched/vectorized engines of PRs 1-2, re-homed behind the
backend interface.  The ``numpy`` backend is the default and the
*reference* every other backend is parity-tested against.
"""

from __future__ import annotations

import numpy as np

from repro.backends._common import seed_chunks, seed_vector
from repro.diffusion.engine import (
    batch_hk_push,
    batch_ppr_push,
    gather_csr_arcs,
    ppr_push_frontier,
)


def ppr_grid(graph, seed_nodes, *, alphas, epsilons):
    """Yield one PPR column per (seed, alpha, epsilon), batched per seed."""
    alphas = tuple(alphas)
    epsilons = tuple(epsilons)
    seed_nodes = list(seed_nodes)
    grid = len(alphas) * len(epsilons)
    for block in seed_chunks(seed_nodes, graph.num_nodes, grid):
        vectors = [seed_vector(graph, s) for s in block]
        batch = batch_ppr_push(
            graph, vectors, alphas=alphas, epsilons=epsilons
        )
        for b in range(batch.num_columns):
            yield batch.approximation[:, b]


def hk_grid(graph, seed_nodes, *, ts, epsilons):
    """Yield one heat-kernel column per (seed, t, epsilon), batched per seed."""
    ts = tuple(ts)
    epsilons = tuple(epsilons)
    seed_nodes = list(seed_nodes)
    grid = len(ts) * len(epsilons)
    for block in seed_chunks(seed_nodes, graph.num_nodes, grid):
        vectors = [seed_vector(graph, s) for s in block]
        batch = batch_hk_push(graph, vectors, ts=ts, epsilons=epsilons)
        for b in range(batch.num_columns):
            yield batch.approximation[:, b]


def ppr_push(graph, seed_vec, *, alpha, epsilon, max_pushes=None):
    """Single-column ACL push (frontier-batched numpy engine)."""
    return ppr_push_frontier(
        graph, seed_vec, alpha=alpha, epsilon=epsilon, max_pushes=max_pushes
    )


def hk_push(graph, seed_vec, t, *, epsilon):
    """Single-column heat-kernel push via the batched engine."""
    return batch_hk_push(
        graph, [seed_vec], ts=(t,), epsilons=(epsilon,)
    ).column(0)


def walk_step(graph, charge, support, *, alpha):
    """One lazy-walk spread step: CSR gather + one bincount scatter."""
    new_charge = alpha * charge
    if support.size:
        arc_positions, counts = gather_csr_arcs(graph.indptr, support)
        flow = (1.0 - alpha) * charge[support] / graph.degrees[support]
        new_charge += np.bincount(
            graph.indices[arc_positions],
            weights=graph.weights[arc_positions] * np.repeat(flow, counts),
            minlength=graph.num_nodes,
        )
    return new_charge


def prefix_scan(graph, order, max_size, max_volume, min_size):
    """Vectorized prefix-conductance scan over the CSR arrays.

    Each arc ``(u, v)`` with both endpoints in the sweep order becomes
    internal at step ``max(rank(u), rank(v))``; a bincount over that step
    index plus a cumulative sum reproduces the scalar scan's incremental
    ``cut``/``volume`` updates without the per-edge Python loop. Ties are
    broken identically to the scalar scan (first minimum wins).
    """
    degrees = graph.degrees
    total_volume = graph.total_volume
    n = graph.num_nodes
    profile = np.full(max_size, np.inf)
    limit = min(max_size, max(n - 1, 0))
    if limit <= 0:
        return profile, (float("inf"), -1, 0.0)
    prefix = order[:limit].astype(np.int64)
    volumes = np.cumsum(degrees[prefix])

    rank = np.full(n, limit, dtype=np.int64)
    rank[prefix] = np.arange(limit)
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    arc_positions, counts = gather_csr_arcs(indptr, prefix)
    if arc_positions.size:
        src_rank = np.repeat(np.arange(limit), counts)
        dst_rank = rank[indices[arc_positions]]
        internal = dst_rank < limit
        step = np.maximum(src_rank[internal], dst_rank[internal])
        # Each internal undirected edge contributes two arcs with the same
        # step, so this bincount accumulates exactly 2 x internal weight.
        twice_internal = np.cumsum(np.bincount(
            step, weights=weights[arc_positions][internal], minlength=limit
        ))
    else:
        twice_internal = np.zeros(limit)
    cut = volumes - twice_internal
    other = total_volume - volumes

    # Replicate the scalar scan's early exits: once a prefix exceeds the
    # volume cap or swallows the whole volume, no later prefix is scored.
    valid = np.ones(limit, dtype=bool)
    if max_volume is not None:
        over = volumes > max_volume
        if over.any():
            valid[int(np.argmax(over)):] = False
    exhausted = other <= 0
    if exhausted.any():
        valid[int(np.argmax(exhausted)):] = False

    denominator = np.minimum(volumes, other)
    scored = valid & (denominator > 0)
    phi = np.full(limit, np.inf)
    phi[scored] = cut[scored] / denominator[scored]
    profile[:limit] = phi

    best = (float("inf"), -1, 0.0)
    low = min_size - 1
    if low < limit:
        position = low + int(np.argmin(phi[low:]))
        if np.isfinite(phi[position]):
            best = (
                float(phi[position]), position, float(volumes[position])
            )
    return profile, best
