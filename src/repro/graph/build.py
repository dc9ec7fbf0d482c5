"""Constructors that build :class:`~repro.graph.graph.Graph` objects.

These builders are the supported way to create graphs. They normalize
arbitrary edge lists (either endpoint order, duplicates, explicit weights)
into the validated CSR form the rest of the library relies on.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import EmptyGraphError, GraphError
from repro.graph.graph import Graph


def from_edges(num_nodes, edges, weights=None, *, combine="sum"):
    """Build a graph from an undirected edge list.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``; node ids must lie in ``[0, n)``.
    edges:
        Iterable of ``(u, v)`` pairs, or an ``(m, 2)`` array. Each pair is an
        undirected edge; order of endpoints does not matter.
    weights:
        Optional per-edge positive weights aligned with ``edges``. Defaults
        to ``1.0`` for every edge.
    combine:
        How to merge duplicate edges: ``"sum"`` (default), ``"max"``, or
        ``"error"`` to reject duplicates.

    Returns
    -------
    Graph

    Raises
    ------
    GraphError
        On self-loops, out-of-range ids, nonpositive weights, an unknown
        ``combine`` mode, or duplicates when ``combine="error"``.
    """
    if num_nodes < 0:
        raise GraphError(f"num_nodes must be >= 0; got {num_nodes}")
    if combine not in ("sum", "max", "error"):
        raise GraphError(f"unknown combine mode {combine!r}")
    return _csr_from_sorted_keys(
        num_nodes, *_sorted_edge_keys(num_nodes, edges, weights, combine)
    )


def _sorted_edge_keys(num_nodes, edges, weights, combine):
    """Validated, deduplicated ``lo * n + hi`` keys of an edge list.

    The keys step of :func:`from_edges` (same arguments, same errors):
    returns ``(key, weights)`` with ``key`` strictly increasing and
    ``weights`` aligned with it, or ``None`` when every weight is 1.0.
    The endpoint columns keep their dtype; only the keys are int64.
    """
    edge_arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if edge_arr.size == 0:
        edge_arr = edge_arr.reshape(0, 2)
    if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
        raise GraphError(f"edges must be (m, 2)-shaped; got {edge_arr.shape}")
    if not np.issubdtype(edge_arr.dtype, np.integer):
        as_int = edge_arr.astype(np.int64)
        if not np.array_equal(as_int, edge_arr):
            raise GraphError("edge endpoints must be integers")
        edge_arr = as_int
    m = edge_arr.shape[0]
    if weights is not None:
        weight_arr = np.asarray(weights, dtype=float)
        if weight_arr.shape != (m,):
            raise GraphError(
                f"weights must have shape ({m},); got {weight_arr.shape}"
            )
    first_col, second_col = edge_arr[:, 0], edge_arr[:, 1]
    if m:
        if edge_arr.min() < 0 or edge_arr.max() >= num_nodes:
            raise GraphError(f"edge endpoints must lie in [0, {num_nodes})")
        if np.any(first_col == second_col):
            raise GraphError("self-loops are not allowed")
        if weights is not None and (
            np.any(weight_arr <= 0) or not np.all(np.isfinite(weight_arr))
        ):
            raise GraphError("edge weights must be positive and finite")

    # Canonical key lo * n + hi per edge, sorted once. The ids are in
    # [0, n), so the unsafe cast to int64 is exact for every id dtype.
    key = np.minimum(first_col, second_col, dtype=np.int64, casting="unsafe")
    key *= np.int64(num_nodes)
    key += np.maximum(first_col, second_col, dtype=np.int64, casting="unsafe")
    if weights is None or bool(np.all(weight_arr == 1.0)):
        # Unit weights: only the sorted keys matter, no permutation.
        key.sort()
        sorted_weights = None
    else:
        # Stable, so equal keys keep their input order: the order in
        # which combine="sum" accumulates them.
        order = np.argsort(key, kind="stable")
        key = key[order]
        sorted_weights = weight_arr[order]
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    if first.all():
        return key, sorted_weights
    if combine == "error":
        raise GraphError("duplicate edges present and combine='error'")
    if sorted_weights is None and combine == "max":
        # The max of unit weights is 1: keep one key per run.
        return key[first], None
    starts = np.flatnonzero(first)
    if sorted_weights is None:
        # Summing k unit weights gives exactly k.
        weight_arr = np.diff(np.append(starts, key.size)).astype(float)
    elif combine == "sum":
        weight_arr = np.zeros(starts.size)
        np.add.at(weight_arr, np.cumsum(first) - 1, sorted_weights)
    else:
        weight_arr = np.maximum.reduceat(sorted_weights, starts)
    return key[starts], weight_arr


def _csr_from_sorted_keys(num_nodes, key, weights):
    """Symmetric CSR graph from strictly increasing ``lo * n + hi`` keys.

    Each key is one edge with ``lo < hi``; ``weights`` is aligned with
    ``key``, or ``None`` when every weight is 1.0. Every row is its
    reverse arcs (neighbours below the row) followed by its forward arcs
    (neighbours above it). Because the keys are sorted, the forward arcs
    ``lo -> hi`` are already in CSR order, and sorting the mirrored keys
    ``hi * n + lo`` puts the reverse arcs in CSR order too, so one
    boolean mask over the arc slots places each list in a single pass.
    Each temporary is dropped once placed, and ``arc_weights`` is
    allocated after ``indices``.
    """
    n = num_nodes
    lo, hi = np.divmod(key, n)
    fwd_count = np.bincount(lo, minlength=n)
    rev_count = np.bincount(hi, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(fwd_count + rev_count, out=indptr[1:])
    forward = np.repeat(
        np.tile([False, True], n),
        np.stack((rev_count, fwd_count), axis=1).ravel(),
    )
    indices = np.empty(2 * key.size, dtype=np.int64)
    indices[forward] = hi
    # The mirrored keys are unique too, so any sort orders them the same.
    rkey = hi
    rkey *= np.int64(n)
    rkey += lo
    del lo, hi
    if weights is None:
        rkey.sort()
    else:
        order = np.argsort(rkey)
        rkey = rkey[order]
    # Flipped in place: the reverse arcs take the slots left over.
    reverse = np.logical_not(forward, out=forward)
    del forward
    indices[reverse] = np.remainder(rkey, n, out=rkey)
    del rkey
    if weights is None:
        arc_weights = np.ones(2 * key.size)
    else:
        arc_weights = np.empty(2 * key.size)
        arc_weights[~reverse] = weights
        arc_weights[reverse] = weights[order]
    return Graph(indptr, indices, arc_weights, validate=False)


def empty_graph(num_nodes):
    """A graph with ``num_nodes`` isolated nodes and no edges."""
    return from_edges(num_nodes, [])


def induced_subgraph_fast(graph, mask):
    """Vectorized induced subgraph on a boolean node mask.

    Produces exactly what :meth:`Graph.induced_subgraph` produces —
    selected nodes renumbered ``0..k-1`` in increasing original-id
    order, neighbor lists in CSR order — but through whole-array NumPy
    operations instead of a per-node Python loop, so it is usable on
    scale-tier graphs (millions of nodes).

    Returns ``(subgraph, original_ids)``.
    """
    mask = np.asarray(mask, dtype=bool)
    n = graph.num_nodes
    if mask.shape != (n,):
        raise GraphError(
            f"boolean node mask must have shape ({n},); got {mask.shape}"
        )
    original_ids = np.flatnonzero(mask)
    k = original_ids.size
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    counts = np.diff(indptr)
    arc_keep = np.repeat(mask, counts) & mask[indices]
    new_id = np.cumsum(mask, dtype=np.int64) - 1
    new_indices = new_id[indices[arc_keep]]
    new_weights = weights[arc_keep]
    # Kept-arc count per kept row -> new indptr.
    kept_rows = new_id[np.repeat(np.arange(n, dtype=np.int64), counts)[arc_keep]]
    new_counts = np.bincount(kept_rows, minlength=k) if k else (
        np.zeros(0, dtype=np.int64)
    )
    new_indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(new_counts, out=new_indptr[1:])
    sub = Graph(new_indptr, new_indices, new_weights, validate=False)
    return sub, original_ids


def connected_component_labels(graph):
    """Component labels in first-discovery order, at NumPy/SciPy speed.

    Returns ``(labels, count)`` with the same contract as
    :meth:`Graph.connected_components` — components are numbered
    ``0, 1, ...`` by the smallest node id they contain — but computed
    through :func:`scipy.sparse.csgraph.connected_components`, so it is
    usable on scale-tier graphs.
    """
    if graph.num_nodes == 0:
        return np.zeros(0, dtype=np.int64), 0
    # The CSR is symmetric, so its strong components are its connected
    # components; asking for them skips scipy's transpose-and-add.
    return _component_labels(
        graph.num_nodes, graph.indptr, graph.indices, graph.weights, "strong"
    )


def _component_labels(num_nodes, indptr, indices, data, connection):
    """First-discovery labels of the components of one sparse structure.

    ``connection`` is passed to scipy: ``"strong"`` for a symmetric CSR,
    ``"weak"`` for one triangle of it.
    """
    from scipy import sparse
    from scipy.sparse import csgraph

    n = num_nodes
    adjacency = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    count, raw = csgraph.connected_components(
        adjacency, directed=True, connection=connection
    )
    # Renumber scipy's labels into first-discovery (min-node-id) order so
    # the result is exchangeable with the Graph method's.
    first_node = np.full(count, n, dtype=np.int64)
    np.minimum.at(first_node, raw, np.arange(n, dtype=np.int64))
    relabel = np.empty(count, dtype=np.int64)
    relabel[np.argsort(first_node, kind="stable")] = np.arange(count)
    return relabel[raw], count


def _upper_component_labels(num_nodes, key, weights):
    """:func:`connected_component_labels` of the graph on sorted edge keys.

    ``key`` and ``weights`` are as for :func:`_csr_from_sorted_keys`. The
    sorted keys already are the graph's upper-triangle CSR (row ``lo``,
    column ``hi``), so its weak components are labelled without building
    the symmetric CSR.
    """
    n = num_nodes
    # int32 halves the index bytes; a cumsum into it would wrap past 2**31.
    index_dtype = np.int32 if max(n, key.size) < 2**31 else np.int64
    indptr = np.zeros(n + 1, dtype=index_dtype)
    np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
    data = np.ones(key.size) if weights is None else weights
    return _component_labels(
        n, indptr, (key % n).astype(index_dtype), data, "weak"
    )


def _largest_component_keys(num_nodes, key, weights, labels, count):
    """Keys of the largest component, given the graph's component labels.

    ``key`` and ``weights`` are as for :func:`_csr_from_sorted_keys`;
    ``(labels, count)`` as :func:`connected_component_labels` returns
    them. Returns ``(key, weights, original_ids)`` for the component,
    with its nodes renumbered ``0..k-1`` in increasing original-id order;
    ties go to the earliest-discovered component, as in
    :meth:`Graph.largest_component`. A connected graph comes back with
    its own ``key`` and ``weights``.
    """
    n = num_nodes
    if count == 1:
        return key, weights, np.arange(n)
    node_keep = labels == int(np.bincount(labels, minlength=count).argmax())
    # Every edge lies inside one component, so testing its lo end is
    # enough; the renumbering is monotone, so the kept keys stay sorted.
    lo = key // n
    edge_keep = node_keep[lo]
    new_id = np.cumsum(node_keep, dtype=np.int64) - 1
    original_ids = np.flatnonzero(node_keep)
    kept_key = new_id[lo[edge_keep]]
    del lo
    kept_key *= np.int64(original_ids.size)
    hi = key[edge_keep]
    hi %= n
    kept_key += new_id[hi]
    if weights is not None:
        weights = weights[edge_keep]
    return kept_key, weights, original_ids


def largest_component_fast(graph):
    """Largest connected component, vectorized.

    The scale-tier twin of :meth:`Graph.largest_component`: same
    ``(subgraph, original_ids)`` contract and the same tie-break (the
    earliest-discovered component among the largest). A connected graph
    comes back as itself, after one labelling of its CSR. Otherwise the
    graph's upper arcs (row < column, in CSR order), which are its sorted
    edge keys, go through the generators' largest-component step and are
    built into one CSR.
    """
    n = graph.num_nodes
    if n == 0:
        raise EmptyGraphError("largest_component of an empty graph")
    labels, count = connected_component_labels(graph)
    if count == 1:
        return graph, np.arange(n)
    indices = graph.indices
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    upper = rows < indices
    key = rows[upper]
    del rows
    key *= np.int64(n)
    key += indices[upper]
    weights = graph.weights[upper]
    if np.all(weights == 1.0):
        # As in from_edges: unit weights let the CSR step sort, not argsort.
        weights = None
    key, weights, original_ids = _largest_component_keys(
        n, key, weights, labels, count
    )
    return _csr_from_sorted_keys(original_ids.size, key, weights), original_ids


def union_disjoint(first, second, bridge_edges=(), bridge_weights=None):
    """Disjoint union of two graphs, optionally bridged.

    ``second``'s node ids are shifted by ``first.num_nodes``. Each entry of
    ``bridge_edges`` is ``(u_in_first, v_in_second)`` in the *original* ids of
    the respective graphs.
    """
    offset = first.num_nodes
    us1, vs1, ws1 = first.edge_array()
    us2, vs2, ws2 = second.edge_array()
    bridge = np.asarray(list(bridge_edges), dtype=np.int64).reshape(-1, 2)
    if bridge_weights is None:
        bw = np.ones(bridge.shape[0])
    else:
        bw = np.asarray(bridge_weights, dtype=float)
    edges = np.concatenate(
        [
            np.stack([us1, vs1], axis=1),
            np.stack([us2 + offset, vs2 + offset], axis=1),
            np.stack([bridge[:, 0], bridge[:, 1] + offset], axis=1)
            if bridge.size
            else np.empty((0, 2), dtype=np.int64),
        ]
    )
    weights = np.concatenate([ws1, ws2, bw])
    return from_edges(offset + second.num_nodes, edges, weights, combine="error")
