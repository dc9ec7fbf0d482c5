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

Solving a wave
--------------
Candidates are independent, so a *wave* runs one round for many sides at
once.  Each side is one block of a union network; all blocks share one
source and one sink, and no arc joins two blocks.  The union is built in
numpy: one CSR gather of every side's arcs, an inside test on
``block · n + node`` keys, and ``bincount`` / ``reduceat`` sums per block.
A wave is cut into consecutive groups of at most ``2**13`` gathered arcs,
so one union network and its solve stay near a megabyte whatever the
number of candidates.

When every edge at a node of ``A`` has an integer weight, its block is an
*integer* network.  Dividing by ``g = gcd(c, v)`` keeps the capacities
small: with ``V = v/g`` and ``C = c/g`` the arcs carry ``V · w``,
``V · boundary(u)`` and ``C · d(u)``, which is the network above scaled
by ``1/g``.  Every integer block of the wave is solved by one call to
scipy's compiled Dinic (``scipy.sparse.csgraph.maximum_flow``) and one
``breadth_first_order`` over the residual graph.  A block improves
nothing iff the flow on its source arcs equals ``V · c``, an exact
integer test with no tolerance.  Its improved set is ``A`` minus the
block's nodes reachable from the source in the residual graph.

The reachable set is the *minimal* source side of a minimum cut, the
same for every maximum flow, so the result does not depend on which
max-flow the solver finds.  The blocks share only the source and the
sink, so a maximum flow of the union is a maximum flow on every block,
and reach never crosses from one block into another: a path between
blocks passes through the sink, which is unreachable at a maximum flow,
or through the source, where every path starts anyway.  So each block's
reach, and hence its result, is exactly what solving that block alone
would give.

The integer sums also give each round's conductance exactly: cut and
volume are integers below ``2**53``, so ``c / min(v, vol(G) - v)`` is
bitwise what :func:`~repro.partition.metrics.conductance` returns,
without its O(m) scan.

scipy stores capacities as int32 and wraps larger values silently, so a
block whose side has a non-integer weight, or whose network would need a
capacity above ``2**31 - 1``, runs on its own on the pure-Python
:class:`~repro.partition.maxflow.FlowNetwork` instead, with float
capacities and a relative tolerance on the stopping test.  The input
alone decides which path runs; both return the same subset wherever both
apply.
"""

from __future__ import annotations

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
_EXACT_MAX = 2**53
_WAVE_ARCS = 2**13


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


def _wave(graph, sides, *, solve=True):
    """φ of every side and, when ``solve``, one MQI round on each.

    ``sides`` are sorted arrays of distinct node ids.  Returns ``(phis,
    improved)``: ``phis[b]`` is φ of ``sides[b]``, and ``improved[b]``
    the strictly better subset the round found, or ``None`` when no
    subset of the side improves it.  ``improved`` is ``None`` when
    ``solve`` is false.
    """
    phis, improved, union = _build_wave(graph, sides, solve=solve)
    # The solve runs once _build_wave has returned and freed its
    # arc-level arrays.
    if union is not None:
        _solve_union(*union, sides, improved)
    return phis, improved


def _build_wave(graph, sides, *, solve):
    """φ of every side, the fallback rounds, and the union network.

    Returns ``(phis, improved, union)``.  ``improved`` holds the results
    of the blocks that take the :func:`_float_round` fallback (``None``
    elsewhere), and ``union`` is ``(network, blocks, starts, saturated)``
    for :func:`_solve_union`, or ``None`` when no block is compiled.
    """
    count = len(sides)
    sizes = np.fromiter(map(len, sides), dtype=np.int64, count=count)
    starts = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    nodes = np.concatenate(sides)
    row_block = np.repeat(np.arange(count), sizes)
    arcs, counts = gather_csr_arcs(graph.indptr, nodes)
    heads = graph.indices[arcs]
    weights = graph.weights[arcs]
    rows = np.repeat(np.arange(nodes.size), counts)
    arc_block = row_block[rows]
    # block·n + node is sorted and unique across the wave: each side is
    # sorted, and the blocks follow one another.
    keys = row_block * graph.num_nodes + nodes
    local = np.searchsorted(keys, arc_block * graph.num_nodes + heads)
    np.minimum(local, nodes.size - 1, out=local)
    inside = keys[local] == arc_block * graph.num_nodes + heads
    boundary = np.bincount(
        rows[~inside], weights=weights[~inside], minlength=nodes.size
    )
    degrees = graph.degrees[nodes]
    # A sink arc carries C·d(u) >= d(u), so a degree above int32 already
    # rules a block out; below it the float sums of integer weights are
    # exact, and so are the int64 block sums below 2**53.
    integral = np.ones(count, dtype=bool)
    integral[arc_block[weights != np.floor(weights)]] = False
    integral[row_block[degrees > _INT32_MAX]] = False
    counted = integral[row_block]
    cut = np.add.reduceat(
        np.where(counted, boundary, 0.0).astype(np.int64), starts[:-1]
    )
    volume = np.add.reduceat(
        np.where(counted, degrees, 0.0).astype(np.int64), starts[:-1]
    )
    exact = integral & (volume <= _EXACT_MAX)
    denominator = np.minimum(volume, graph.total_volume - volume)
    with np.errstate(divide="ignore", invalid="ignore"):
        phis = (cut / denominator).tolist()
    for b in np.flatnonzero(~exact | (denominator <= 0)):
        phis[b] = conductance(graph, sides[b])
    if not solve:
        return phis, None, None

    compiled = exact & (cut > 0)
    common = np.maximum(np.gcd(cut, volume), 1)
    vol_scale = np.where(compiled, volume // common, 0)
    cut_scale = np.where(compiled, cut // common, 0)
    # Float products of integers are exact up to 2**53, so these tests
    # against 2**31 - 1 are exact.
    internal_cap = vol_scale[arc_block] * weights
    source_cap = vol_scale[row_block] * boundary
    sink_cap = cut_scale[row_block] * degrees
    wide = np.zeros(count, dtype=bool)
    wide[arc_block[inside & (internal_cap > _INT32_MAX)]] = True
    wide[row_block[np.maximum(source_cap, sink_cap) > _INT32_MAX]] = True
    compiled &= ~wide
    improved = [None] * count
    for b in np.flatnonzero(~exact | wide):
        improved[b] = _float_round(graph, sides[b])
    if not compiled.any():
        return phis, improved, None

    # The union network: rows 0..size-1 are the compiled blocks' nodes,
    # block after block, row ``size`` is the source and ``size + 1`` the
    # sink.  Each node row holds its internal arcs in CSR order, then its
    # sink arc; the gathered arcs are already grouped by row, so every
    # arc's slot is known without a sort.
    row_on = compiled[row_block]
    union_rows = np.flatnonzero(row_on)
    size = union_rows.size
    renumber = np.cumsum(row_on) - 1
    arc_on = inside & row_on[rows]
    tails = renumber[rows[arc_on]]
    fed = np.flatnonzero(boundary[union_rows])
    indptr = np.zeros(size + 3, dtype=np.int64)
    indptr[1:size + 1] = np.cumsum(np.bincount(tails, minlength=size) + 1)
    indptr[size + 1:] = indptr[size] + fed.size
    internal_slots = np.arange(tails.size) + tails
    sink_slots = indptr[1:size + 1] - 1
    indices = np.empty(indptr[-1], dtype=np.int32)
    capacity = np.empty(indptr[-1], dtype=np.int32)
    indices[internal_slots] = renumber[local[arc_on]]
    capacity[internal_slots] = internal_cap[arc_on]
    indices[sink_slots] = size + 1
    capacity[sink_slots] = sink_cap[union_rows]
    indices[indptr[size]:] = fed
    capacity[indptr[size]:] = source_cap[union_rows[fed]]
    network = sparse.csr_array(
        (capacity, indices, indptr.astype(np.int32)),
        shape=(size + 2, size + 2),
    )
    blocks = np.flatnonzero(compiled)
    union_starts = np.zeros(blocks.size + 1, dtype=np.int64)
    np.cumsum(sizes[blocks], out=union_starts[1:])
    return phis, improved, (
        network, blocks, union_starts, vol_scale[blocks] * cut[blocks]
    )


def _solve_union(network, blocks, starts, saturated, sides, improved):
    """Solve a union network by scipy's compiled Dinic and split it.

    ``blocks`` are the compiled sides in union order, their rows start at
    ``starts``, and ``saturated[i]`` is the flow that means block ``i``
    cannot improve.  Each improving block's subset goes into
    ``improved``.
    """
    # Imported here: scipy.sparse.csgraph pulls in scipy.sparse.linalg,
    # which ``import repro`` otherwise never loads.
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    source, sink = network.shape[0] - 2, network.shape[0] - 1
    flow = maximum_flow(network, source, sink, method="dinic").flow
    # int64: a reverse residual cap(u, x) + flow(x, u) may exceed int32.
    residual = network.astype(np.int64) - flow.astype(np.int64)
    reached = breadth_first_order(
        residual > 0, source, directed=True, return_predecessors=False
    )
    cut_off = np.zeros(source, dtype=bool)
    cut_off[reached[reached < source]] = True
    # Saturation per block, from the flow on the block's source arcs.
    source_arcs = slice(flow.indptr[source], flow.indptr[sink])
    sent = np.zeros(blocks.size, dtype=np.int64)
    np.add.at(
        sent, np.searchsorted(starts, flow.indices[source_arcs], "right") - 1,
        flow.data[source_arcs],
    )
    for i in np.flatnonzero(sent < saturated):
        side = sides[blocks[i]]
        kept = side[~cut_off[starts[i]:starts[i + 1]]]
        if 0 < kept.size < side.size:
            improved[blocks[i]] = kept


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


def _checked_side(graph, nodes):
    """``nodes`` as MQI's sorted side; raises when MQI cannot take it."""
    side = np.unique(np.asarray(nodes, dtype=np.int64))
    if side.size == 0 or side.size >= graph.num_nodes:
        raise PartitionError("MQI needs a nonempty proper subset")
    volume = float(graph.degrees[side].sum())
    if volume > graph.total_volume / 2.0 + 1e-9:
        raise PartitionError(
            "MQI requires vol(side) <= vol(G)/2; pass the smaller side"
        )
    return side


def _wave_groups(graph, sides):
    """Split ``sides`` into consecutive runs of at most ``_WAVE_ARCS``
    gathered arcs, so one union network stays near a megabyte; a larger
    side runs alone."""
    indptr = graph.indptr
    group, arcs = [], 0
    for side in sides:
        count = int(indptr[side + 1].sum() - indptr[side].sum())
        if group and arcs + count > _WAVE_ARCS:
            yield group
            group, arcs = [], 0
        group.append(side)
        arcs += count
    yield group


def _mqi_waves(graph, sides, *, max_rounds):
    """Iterated MQI on many checked sides at once, one wave per round.

    Returns one :class:`MQIResult` per side, each exactly what iterating
    that side alone gives.  A side leaves the wave when a round finds no
    improving subset; the wave after the last round only measures φ.
    """
    current = list(sides)
    initial = [0.0] * len(sides)
    history = [[] for _ in sides]
    converged = [False] * len(sides)
    live = list(range(len(sides)))
    for round_ in range(max_rounds + 1):
        if not live:
            break
        solve = round_ < max_rounds
        phis, improved = [], []
        for group in _wave_groups(graph, [current[b] for b in live]):
            group_phis, group_improved = _wave(graph, group, solve=solve)
            phis += group_phis
            if solve:
                improved += group_improved
        for b, phi in zip(live, phis):
            if round_ == 0:
                initial[b] = phi
            else:
                history[b].append(phi)
        if not solve:
            break
        still = []
        for b, better in zip(live, improved):
            if better is None:
                converged[b] = True
            else:
                current[b] = better
                still.append(b)
        live = still
    results = []
    for b in range(len(sides)):
        if not converged[b]:
            warnings.warn(
                f"mqi exhausted max_rounds={max_rounds} while rounds were "
                f"still improving; the result may not be subset-optimal "
                f"(MQIResult.converged is False)",
                RuntimeWarning,
                stacklevel=3,
            )
        results.append(MQIResult(
            nodes=current[b],
            conductance=history[b][-1] if history[b] else initial[b],
            initial_conductance=initial[b],
            rounds=len(history[b]),
            history=history[b],
            converged=converged[b],
        ))
    return results


def mqi(graph, nodes, *, max_rounds=100):
    """Iterate MQI rounds until no subset of the side improves conductance.

    The one-side case of the wave loop that :class:`repro.refine.MQI`
    runs over a whole candidate ensemble.

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
    side = _checked_side(graph, nodes)
    return _mqi_waves(graph, [side], max_rounds=max_rounds)[0]


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
