"""MQI — Max-flow Quotient-cut Improvement (Lang–Rao).

The paper's Figure 1 flow-based curve is produced by "Metis+MQI": a balanced
partitioner proposes a side ``A``, then MQI repeatedly asks, *is there a
subset A' ⊆ A with strictly better conductance?* — a question that reduces
exactly to an s–t max-flow:

Given ``A`` with cut weight ``c`` and volume ``v = vol(A) <= vol(G)/2``,
build the network

* an arc of capacity ``v · w(u, x)`` for each internal edge ``{u, x} ⊆ A``
  (both directions),
* ``source → u`` with capacity ``v · (weight of edges from u to Ā)``,
* ``u → sink`` with capacity ``c · d(u)``.

Then a subset ``A' ⊆ A`` with ``φ(A') < φ(A) = c/v`` exists **iff** the
max-flow is less than ``c · v``, and the source side of the min cut (minus
the source) is such an ``A'``. Iterating to a fixed point yields a set that
is *optimal among subsets of the original side* — a strictly flow-based
object, which is why its clusters score well on conductance but can be
stringy (the Figure 1 tradeoff).

Solving a round
---------------
When every edge at a node of ``A`` has an integer weight, a round is
built in numpy (one CSR gather of the side's arcs, one ``bincount`` for
the boundary weights) as an *integer* network and solved by scipy's
compiled Dinic (``scipy.sparse.csgraph.maximum_flow``).  Dividing by
``g = gcd(c, v)`` keeps the capacities small: with ``V = v/g`` and
``C = c/g`` the arcs carry ``V · w``, ``V · boundary(u)`` and
``C · d(u)``, which is the network above scaled by ``1/g``.  A round
improves nothing iff the flow value equals ``V · c``, an exact integer
test with no tolerance.  The improved set is ``A`` minus the nodes
reachable from the source in the residual graph.  That reachable set is
the *minimal* source side of a minimum cut, the same for every maximum
flow, so the result does not depend on which max-flow the solver finds.

scipy stores capacities as int32 and wraps larger values silently, so a
round whose side has a non-integer weight, or whose network would need a
capacity above ``2**31 - 1``, runs on the pure-Python
:class:`~repro.partition.maxflow.FlowNetwork` instead, with float
capacities and a relative tolerance on the stopping test.  The input
alone decides which path runs; both return the same subset wherever both
apply.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.diffusion._csr import gather_csr_arcs
from repro.exceptions import PartitionError
from repro.partition.maxflow import FlowNetwork
from repro.partition.metrics import conductance

_REL_EPS = 1e-12
_INT32_MAX = 2**31 - 1


@dataclass
class MQIResult:
    """Outcome of iterated MQI.

    Attributes
    ----------
    nodes:
        The improved set A* (sorted node ids).
    conductance:
        φ(A*).
    initial_conductance:
        φ of the starting set.
    rounds:
        Number of improving max-flow rounds performed.
    history:
        Conductance after each round (strictly decreasing).
    converged:
        Whether a round found no improving subset (the fixed point was
        reached).  ``False`` means ``max_rounds`` was exhausted while
        rounds were still improving, so the result may not be
        subset-optimal; :func:`mqi` also warns in that case.
    """

    nodes: np.ndarray
    conductance: float
    initial_conductance: float
    rounds: int
    history: list = field(default_factory=list)
    converged: bool = True


def _one_round(graph, side):
    """One MQI max-flow round; returns an improved subset or ``None``.

    ``side`` is a sorted array of distinct node ids.  The round runs on
    the compiled solver whenever :func:`_integer_network` can build the
    network exactly, and on :func:`_float_round` otherwise.
    """
    built = _integer_network(graph, side)
    if built is None:
        return _float_round(graph, side)
    reached = _min_cut_source_side(*built)
    if reached is None:
        return None  # the flow saturates every sink arc: no improvement
    keep = np.ones(side.size, dtype=bool)
    keep[reached[reached < side.size]] = False
    improved = side[keep]
    if improved.size == 0 or improved.size == side.size:
        return None
    return improved


def _integer_network(graph, side):
    """The round's network with exact int32 capacities.

    Returns ``(network, saturated)``: a ``(k+2) × (k+2)`` int32
    ``csr_array`` whose rows ``0..k-1`` are the side, row ``k`` the
    source and row ``k+1`` the sink, and the flow value ``V·cut`` that
    means no improvement.  Returns ``None`` when the side has no
    boundary, a side arc has a non-integer weight, or a capacity exceeds
    ``2**31 - 1``; scipy would wrap such a capacity silently.
    """
    k = side.size
    arcs, counts = gather_csr_arcs(graph.indptr, side)
    heads = graph.indices[arcs]
    weights = graph.weights[arcs]
    rows = np.repeat(np.arange(k), counts)
    local = np.minimum(np.searchsorted(side, heads), k - 1)
    inside = side[local] == heads
    boundary = np.bincount(
        rows[~inside], weights=weights[~inside], minlength=k
    )
    degrees = graph.degrees[side]
    # A sink arc carries C·d(u) >= d(u), so a degree above int32 already
    # rules the network out; below it the float sums of integer weights
    # are exact.
    if (not boundary.any() or degrees.max() > _INT32_MAX
            or np.any(weights != np.floor(weights))):
        return None
    boundary = boundary.astype(np.int64)
    degrees = degrees.astype(np.int64)
    internal = weights[inside].astype(np.int64)
    cut, volume = int(boundary.sum()), int(degrees.sum())
    common = math.gcd(cut, volume)
    vol_scale, cut_scale = volume // common, cut // common
    widest = max(int(internal.max(initial=0)), int(boundary.max()))
    if (vol_scale * widest > _INT32_MAX
            or cut_scale * int(degrees.max()) > _INT32_MAX):
        return None
    # Each side row holds its internal arcs in CSR order, then its sink
    # arc; the gathered arcs are already grouped by row, so every arc's
    # slot is known without a sort.
    internal_rows = rows[inside]
    fed = np.flatnonzero(boundary)
    indptr = np.zeros(k + 3, dtype=np.int64)
    indptr[1:k + 1] = np.cumsum(np.bincount(internal_rows, minlength=k) + 1)
    indptr[k + 1:] = indptr[k] + fed.size
    internal_arcs = np.arange(internal_rows.size) + internal_rows
    sink_arcs = indptr[1:k + 1] - 1
    indices = np.empty(indptr[-1], dtype=np.int32)
    capacity = np.empty(indptr[-1], dtype=np.int64)
    indices[internal_arcs] = local[inside]
    capacity[internal_arcs] = vol_scale * internal
    indices[sink_arcs] = k + 1
    capacity[sink_arcs] = cut_scale * degrees
    indices[indptr[k]:] = fed
    capacity[indptr[k]:] = vol_scale * boundary[fed]
    network = sparse.csr_array(
        (capacity.astype(np.int32), indices, indptr.astype(np.int32)),
        shape=(k + 2, k + 2),
    )
    return network, vol_scale * cut


def _min_cut_source_side(network, saturated):
    """Solve an :func:`_integer_network` with scipy's compiled Dinic.

    Returns the nodes reachable from the source in the residual graph,
    or ``None`` when the flow value equals ``saturated``.
    """
    # Imported here: scipy.sparse.csgraph pulls in scipy.sparse.linalg,
    # which ``import repro`` otherwise never loads.
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    source, sink = network.shape[0] - 2, network.shape[0] - 1
    solved = maximum_flow(network, source, sink, method="dinic")
    if solved.flow_value == saturated:
        return None
    # int64: a reverse residual cap(u, x) + flow(x, u) may exceed int32.
    residual = network.astype(np.int64) - solved.flow.astype(np.int64)
    return breadth_first_order(
        residual > 0, source, directed=True, return_predecessors=False
    )


def _float_round(graph, side):
    """The :class:`FlowNetwork` round: float capacities, tolerant test."""
    mask = np.zeros(graph.num_nodes, dtype=bool)
    mask[side] = True
    degrees = graph.degrees
    cut = graph.cut_weight(mask)
    volume = float(degrees[mask].sum())
    if cut <= 0:
        return None  # disconnected side: conductance already 0
    local_id = {int(u): i for i, u in enumerate(side)}
    k = side.size
    source, sink = k, k + 1
    network = FlowNetwork(k + 2)
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    for i, u in enumerate(side):
        boundary = 0.0
        for arc in range(indptr[u], indptr[u + 1]):
            v = int(indices[arc])
            w = float(weights[arc])
            if mask[v]:
                if v > u:  # add each internal edge once, both directions
                    network.add_edge(
                        i, local_id[v], volume * w,
                        reverse_capacity=volume * w,
                    )
            else:
                boundary += w
        if boundary > 0:
            network.add_edge(source, i, volume * boundary)
        network.add_edge(i, sink, cut * float(degrees[u]))
    result = network.max_flow(source, sink)
    target = cut * volume
    if result.value >= target * (1.0 - _REL_EPS) - 1e-6:
        return None  # no subset improves the quotient
    # The min cut with source side {s} ∪ (A \ A') has capacity
    # c·v + v·cut(A') − c·vol(A'), so the *improving* subset A' is the part
    # of A on the SINK side of the minimum cut.
    reachable = set(int(r) for r in result.min_cut_source_side())
    improved = side[[i for i in range(k) if i not in reachable]]
    if improved.size == 0 or improved.size == side.size:
        return None
    return improved


def mqi(graph, nodes, *, max_rounds=100):
    """Iterate MQI rounds until no subset of the side improves conductance.

    Parameters
    ----------
    graph:
        The graph.
    nodes:
        Starting side; its volume must be at most half the total (swap to
        the complement before calling otherwise).
    max_rounds:
        Safety cap (each round strictly decreases φ, so termination is
        guaranteed anyway for rational weights).

    Returns
    -------
    MQIResult
    """
    side = np.unique(np.asarray(nodes, dtype=np.int64))
    if side.size == 0 or side.size >= graph.num_nodes:
        raise PartitionError("MQI needs a nonempty proper subset")
    volume = float(graph.degrees[side].sum())
    if volume > graph.total_volume / 2.0 + 1e-9:
        raise PartitionError(
            "MQI requires vol(side) <= vol(G)/2; pass the smaller side"
        )
    initial_phi = conductance(graph, side)
    history = []
    current = side
    converged = False
    for _ in range(max_rounds):
        improved = _one_round(graph, current)
        if improved is None:
            converged = True
            break
        current = improved
        history.append(conductance(graph, current))
    if not converged:
        warnings.warn(
            f"mqi exhausted max_rounds={max_rounds} while rounds were "
            f"still improving; the result may not be subset-optimal "
            f"(MQIResult.converged is False)",
            RuntimeWarning,
            stacklevel=2,
        )
    final_phi = conductance(graph, current)
    return MQIResult(
        nodes=np.sort(current),
        conductance=final_phi,
        initial_conductance=initial_phi,
        rounds=len(history),
        history=history,
        converged=converged,
    )


def mqi_certificate(graph, nodes, *, trials=200, seed=None):
    """Sanity check of MQI optimality: random subsets of an MQI fixed point
    should never beat its conductance.

    A randomized test oracle (not part of the algorithm); returns the best
    φ found over random subsets, which must be >= φ(nodes) when MQI has
    converged.
    """
    from repro._validation import as_rng

    rng = as_rng(seed)
    side = np.asarray(sorted(int(u) for u in nodes), dtype=np.int64)
    base = conductance(graph, side)
    best = float("inf")
    for _ in range(trials):
        keep = rng.random(side.size) < rng.uniform(0.3, 0.95)
        subset = side[keep]
        if subset.size == 0 or subset.size == side.size:
            continue
        best = min(best, conductance(graph, subset))
    return base, best
