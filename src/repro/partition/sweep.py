"""Sweep cuts: turning an embedding vector into a partition.

Given a score vector, order the nodes by score and examine every prefix set;
return the prefix of minimum conductance. This is the rounding step shared by
every spectral method in the paper — global (Section 3.2), locally-biased
(Problem (8)), and strongly local (Section 3.3). The incremental update makes
a full sweep cost ``O(m + n log n)``; the scan vectorizes that incremental
update into a single bincount/cumsum pass over the CSR arrays.  The
node-at-a-time loop it replaced stays beside it as the private parity
oracle the tests compare against.

Conventions: diffusion outputs are degree-normalized before ordering
(``p_u / d_u``), which is the ordering for which the Cheeger-style guarantees
of [1, 15, 33, 39] are stated; eigenvector embeddings coming from
:func:`repro.linalg.fiedler.fiedler_embedding` are already in the right
coordinates and use ``degree_normalize=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._validation import check_numpy_backend, check_vector
from repro.diffusion._csr import gather_csr_arcs
from repro.exceptions import PartitionError


@dataclass
class SweepCutResult:
    """Best prefix cut of a sweep.

    Attributes
    ----------
    nodes:
        Sorted array of node ids in the best prefix S.
    conductance:
        φ(S).
    size:
        |S|.
    volume:
        vol(S).
    order:
        The node ordering swept (all candidates, best first by score).
    profile:
        Conductance of every prefix (``profile[k]`` = φ of the first k+1
        nodes); the raw material of conductance-vs-size plots.
    """

    nodes: np.ndarray
    conductance: float
    size: int
    volume: float
    order: np.ndarray
    profile: np.ndarray = field(repr=False, default=None)


def sweep_cut(graph, scores, *, degree_normalize=True, restrict_to=None,
              max_volume=None, min_size=1, max_size=None,
              backend=None):
    """Find the minimum-conductance prefix of the score ordering.

    Parameters
    ----------
    graph:
        The graph.
    scores:
        Node scores; higher score = earlier in the sweep.
    degree_normalize:
        Divide scores by weighted degree before ordering (the diffusion
        convention).
    restrict_to:
        Optional node subset to sweep over (the *local* sweep of Section
        3.3: only the support of a truncated diffusion is examined, so the
        sweep cost is independent of n). Nodes outside are never included.
    max_volume:
        Stop the sweep once the prefix volume exceeds this (the volume cap
        ``vol(S) <= k`` of Problem (9)).
    min_size, max_size:
        Restrict the admissible prefix sizes.
    backend:
        Only ``None`` or ``"numpy"``, the one scan there is; any other
        value raises :class:`~repro.exceptions.InvalidParameterError`.

    Returns
    -------
    SweepCutResult

    Raises
    ------
    PartitionError
        When no admissible prefix exists (e.g. empty restriction).
    """
    check_numpy_backend(backend)
    scores = check_vector(scores, graph.num_nodes, "scores")
    degrees = graph.degrees
    if degree_normalize:
        if np.any(degrees <= 0):
            raise PartitionError("degree normalization needs positive degrees")
        keys = scores / degrees
    else:
        keys = scores
    if restrict_to is not None:
        candidates = np.asarray(restrict_to, dtype=np.int64)
        if candidates.size == 0:
            raise PartitionError("restrict_to must be nonempty")
    else:
        candidates = np.arange(graph.num_nodes)
    order = candidates[np.argsort(-keys[candidates], kind="stable")]
    if max_size is None:
        max_size = order.size
    max_size = min(max_size, order.size)

    profile, best = _prefix_scan(
        graph, order, max_size, max_volume, min_size
    )
    phi_best, position_best, volume_best = best
    if position_best < 0:
        raise PartitionError("sweep found no admissible prefix")
    chosen = np.sort(order[: position_best + 1])
    return SweepCutResult(
        nodes=chosen,
        conductance=phi_best,
        size=position_best + 1,
        volume=volume_best,
        order=order,
        profile=profile,
    )


def all_prefix_clusters(graph, scores, *, degree_normalize=True,
                        restrict_to=None, max_size=None):
    """Every sweep prefix with its conductance, as ``(size, φ, volume)`` rows.

    The cluster-ensemble generator for NCP profiles: a single diffusion
    yields one candidate cluster per prefix size.
    """
    result = sweep_cut(
        graph, scores, degree_normalize=degree_normalize,
        restrict_to=restrict_to, max_size=max_size,
    )
    rows = []
    degrees = graph.degrees
    volume = 0.0
    for position, phi in enumerate(result.profile):
        volume += float(degrees[int(result.order[position])])
        if np.isfinite(phi):
            rows.append((position + 1, float(phi), volume))
    return rows, result.order


def _prefix_scan(graph, order, max_size, max_volume, min_size):
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


def _prefix_scan_scalar(graph, order, max_size, max_volume, min_size):
    """Reference prefix-conductance scan: one node at a time.

    The parity oracle of :func:`_prefix_scan` (and the loop the
    incremental-update analysis in the module docstring describes); only
    the tests call it.
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
