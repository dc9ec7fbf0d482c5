"""Sweep cuts: turning an embedding vector into a partition.

Given a score vector, order the nodes by score and examine every prefix set;
return the prefix of minimum conductance. This is the rounding step shared by
every spectral method in the paper — global (Section 3.2), locally-biased
(Problem (8)), and strongly local (Section 3.3). The incremental update makes
a full sweep cost ``O(m + n log n)``; the default (``numpy`` backend) scan
vectorizes that incremental update into a single bincount/cumsum pass over
the CSR arrays, and the ``scalar`` backend keeps the node-at-a-time parity
reference (see :mod:`repro.backends`).

Conventions: diffusion outputs are degree-normalized before ordering
(``p_u / d_u``), which is the ordering for which the Cheeger-style guarantees
of [1, 15, 33, 39] are stated; eigenvector embeddings coming from
:func:`repro.linalg.fiedler.fiedler_embedding` are already in the right
coordinates and use ``degree_normalize=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._validation import check_vector
from repro.backends import get_backend
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
        Registered backend name or :class:`~repro.backends.EngineBackend`
        providing the prefix scan; default ``"numpy"``. All backends visit
        prefixes in the same order and break ties identically.

    Returns
    -------
    SweepCutResult

    Raises
    ------
    PartitionError
        When no admissible prefix exists (e.g. empty restriction).
    """
    ops = get_backend("numpy" if backend is None else backend)
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

    profile, best = ops.prefix_scan(
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
                        restrict_to=None, max_size=None, backend=None):
    """Every sweep prefix with its conductance, as ``(size, φ, volume)`` rows.

    The cluster-ensemble generator for NCP profiles: a single diffusion
    yields one candidate cluster per prefix size.
    """
    result = sweep_cut(
        graph, scores, degree_normalize=degree_normalize,
        restrict_to=restrict_to, max_size=max_size, backend=backend,
    )
    rows = []
    degrees = graph.degrees
    volume = 0.0
    for position, phi in enumerate(result.profile):
        volume += float(degrees[int(result.order[position])])
        if np.isfinite(phi):
            rows.append((position + 1, float(phi), volume))
    return rows, result.order
