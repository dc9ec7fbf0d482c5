"""Local flow-based improvement of a seed cluster.

Section 3.3 cites Andersen–Lang's "An algorithm for improving graph
partitions" [3] as the flow-based counterpart of local spectral methods. We
implement the practical variant used throughout the Figure 1 literature:

1. dilate the proposed seed set by a few BFS hops (so flow can *add*
   nearby nodes that the proposal missed, which plain MQI cannot do);
2. run iterated MQI inside the dilated set to find the best-conductance
   subset;
3. keep the result only if it actually improves the proposal.

The dilation radius trades locality for improvement power: radius 0 is
exactly MQI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import check_int
from repro.diffusion._csr import gather_csr_arcs
from repro.exceptions import PartitionError
from repro.partition.metrics import conductance
from repro.partition.mqi import mqi


@dataclass
class FlowImproveResult:
    """Outcome of dilate-then-MQI improvement.

    Attributes
    ----------
    nodes:
        The improved cluster.
    conductance:
        φ(improved).
    initial_conductance:
        φ of the proposal.
    dilation_radius:
        BFS hops of dilation used.
    improved:
        Whether the output strictly beats the proposal.
    rounds:
        Improving MQI rounds performed inside the dilated region (0 when
        the flow stage was skipped).
    converged:
        Whether the inner MQI reached its fixed point.  ``False`` means
        ``max_rounds`` was exhausted mid-improvement (see
        :class:`~repro.partition.mqi.MQIResult.converged`).
    """

    nodes: np.ndarray
    conductance: float
    initial_conductance: float
    dilation_radius: int
    improved: bool
    rounds: int = 0
    converged: bool = True


def dilate(graph, nodes, radius):
    """All nodes within ``radius`` hops of the set (including the set).

    Each BFS frontier expands with one shared CSR gather
    (:func:`gather_csr_arcs`) plus a boolean-mask scatter — no per-node
    Python loop.  :func:`_dilate_scalar`, the original set-based BFS, is
    its parity oracle (benchmark E14 measures the gap).
    """
    radius = check_int(radius, "radius", minimum=0)
    seen = np.zeros(graph.num_nodes, dtype=bool)
    frontier = np.unique(np.atleast_1d(np.asarray(nodes, dtype=np.int64)))
    seen[frontier] = True
    indptr, indices = graph.indptr, graph.indices
    for _ in range(radius):
        if frontier.size == 0:
            break
        arcs, _counts = gather_csr_arcs(indptr, frontier)
        neighbors = indices[arcs]
        fresh = np.unique(neighbors[~seen[neighbors]])
        seen[fresh] = True
        frontier = fresh
    return np.flatnonzero(seen).astype(np.int64)


def _dilate_scalar(graph, nodes, radius):
    """Scalar parity oracle: the original pure-Python set-based BFS."""
    frontier = set(int(u) for u in nodes)
    seen = set(frontier)
    for _ in range(radius):
        next_frontier = set()
        for u in frontier:
            for v in graph.neighbors(u):
                v = int(v)
                if v not in seen:
                    seen.add(v)
                    next_frontier.add(v)
        frontier = next_frontier
        if not frontier:
            break
    return np.asarray(sorted(seen), dtype=np.int64)


def flow_improve(graph, nodes, *, dilation_radius=1, max_rounds=50):
    """Improve a proposed cluster by dilation + iterated MQI.

    Parameters
    ----------
    graph:
        The graph.
    nodes:
        Proposed cluster (nonempty proper subset).
    dilation_radius:
        BFS dilation before the flow stage. The dilated set is clipped to
        at most half the graph volume (MQI's requirement) by discarding the
        highest-degree dilation nodes first.
    max_rounds:
        MQI round cap.

    Returns
    -------
    FlowImproveResult
    """
    base = np.asarray(sorted(set(int(u) for u in nodes)), dtype=np.int64)
    if base.size == 0 or base.size >= graph.num_nodes:
        raise PartitionError("flow_improve needs a nonempty proper subset")
    initial_phi = conductance(graph, base)
    region = dilate(graph, base, dilation_radius)
    if region.size >= graph.num_nodes:
        region = base
    # Respect MQI's volume precondition, preferring to keep the original set.
    half = graph.total_volume / 2.0
    if float(graph.degrees[region].sum()) > half:
        added = np.setdiff1d(region, base)
        added = added[np.argsort(graph.degrees[added])]  # cheap first
        kept = list(base)
        volume = float(graph.degrees[base].sum())
        for u in added:
            du = float(graph.degrees[u])
            if volume + du > half:
                continue
            kept.append(int(u))
            volume += du
        region = np.asarray(sorted(kept), dtype=np.int64)
    if float(graph.degrees[region].sum()) > half:
        # The proposal itself exceeds half the volume: fall back to it.
        return FlowImproveResult(
            nodes=base,
            conductance=initial_phi,
            initial_conductance=initial_phi,
            dilation_radius=dilation_radius,
            improved=False,
        )
    result = mqi(graph, region, max_rounds=max_rounds)
    if result.conductance < initial_phi - 1e-15:
        return FlowImproveResult(
            nodes=result.nodes,
            conductance=result.conductance,
            initial_conductance=initial_phi,
            dilation_radius=dilation_radius,
            improved=True,
            rounds=result.rounds,
            converged=result.converged,
        )
    return FlowImproveResult(
        nodes=base,
        conductance=initial_phi,
        initial_conductance=initial_phi,
        dilation_radius=dilation_radius,
        improved=False,
        rounds=result.rounds,
        converged=result.converged,
    )
