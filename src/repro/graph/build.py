"""Constructors that build :class:`~repro.graph.graph.Graph` objects.

These builders are the supported way to create graphs. They normalize
arbitrary edge lists (either endpoint order, duplicates, explicit weights)
into the validated CSR form the rest of the library relies on.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GraphError
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
    edge_arr = edge_arr.astype(np.int64, copy=False)
    m = edge_arr.shape[0]
    if weights is not None:
        weight_arr = np.asarray(weights, dtype=float)
        if weight_arr.shape != (m,):
            raise GraphError(
                f"weights must have shape ({m},); got {weight_arr.shape}"
            )
    if m:
        if edge_arr.min() < 0 or edge_arr.max() >= num_nodes:
            raise GraphError(f"edge endpoints must lie in [0, {num_nodes})")
        if np.any(edge_arr[:, 0] == edge_arr[:, 1]):
            raise GraphError("self-loops are not allowed")
        if weights is not None and (
            np.any(weight_arr <= 0) or not np.all(np.isfinite(weight_arr))
        ):
            raise GraphError("edge weights must be positive and finite")

    # Canonical key lo * n + hi per edge, sorted once.
    key = np.minimum(edge_arr[:, 0], edge_arr[:, 1])
    key *= np.int64(num_nodes)
    key += np.maximum(edge_arr[:, 0], edge_arr[:, 1])
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
    if not first.all():
        if combine == "error":
            raise GraphError("duplicate edges present and combine='error'")
        starts = np.flatnonzero(first)
        if sorted_weights is None:
            # Summing k unit weights gives exactly k; max gives 1.
            weight_arr = (
                np.diff(np.append(starts, key.size)).astype(float)
                if combine == "sum" else None
            )
        elif combine == "sum":
            weight_arr = np.zeros(starts.size)
            np.add.at(weight_arr, np.cumsum(first) - 1, sorted_weights)
        else:
            weight_arr = np.maximum.reduceat(sorted_weights, starts)
        key = key[starts]
    else:
        weight_arr = sorted_weights
    return _csr_from_sorted_keys(num_nodes, key, weight_arr)


def _csr_from_sorted_keys(num_nodes, key, weights):
    """Symmetric CSR graph from strictly increasing ``lo * n + hi`` keys.

    Each key is one edge with ``lo < hi``; ``weights`` is aligned with
    ``key``, or ``None`` when every weight is 1.0. Because the keys are
    sorted, the forward arcs ``lo -> hi`` are already in CSR order, and
    sorting the mirrored keys ``hi * n + lo`` puts the reverse arcs in CSR
    order too. Every row is its reverse arcs (neighbours below the row)
    followed by its forward arcs (neighbours above it), so each arc's slot
    is its rank in its own list plus a per-row offset derived from the
    per-row arc counts.
    """
    n = num_nodes
    lo, hi = np.divmod(key, n)
    fwd_count = np.bincount(lo, minlength=n)
    rev_count = np.bincount(hi, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(fwd_count + rev_count, out=indptr[1:])
    rank = np.arange(key.size, dtype=np.int64)
    indices = np.empty(2 * key.size, dtype=np.int64)
    arc_weights = np.ones(2 * key.size)
    # Forward arc i of row lo lands after the row's reverse arcs:
    # indptr[lo] + rev_count[lo] + (i - fwd_start[lo]) == i + rev_end[lo].
    slot = rank + np.cumsum(rev_count)[lo]
    indices[slot] = hi
    if weights is not None:
        arc_weights[slot] = weights
    # The mirrored keys are unique too, so any sort orders them the same.
    rkey = hi * np.int64(n) + lo
    if weights is None:
        rkey.sort()
        rhi, rlo = np.divmod(rkey, n)
    else:
        order = np.argsort(rkey)
        rhi, rlo = hi[order], lo[order]
    # Reverse arc j of row hi: indptr[hi] + (j - rev_start[hi])
    # == j + fwd_start[hi].
    slot = rank + (np.cumsum(fwd_count) - fwd_count)[rhi]
    indices[slot] = rlo
    if weights is not None:
        arc_weights[slot] = weights[order]
    return Graph(indptr, indices, arc_weights, validate=False)


def from_scipy_sparse(matrix, *, tol=0.0):
    """Build a graph from a scipy sparse symmetric adjacency matrix."""
    from scipy import sparse

    if not sparse.issparse(matrix):
        raise GraphError("from_scipy_sparse expects a scipy sparse matrix")
    coo = matrix.tocoo()
    if coo.shape[0] != coo.shape[1]:
        raise GraphError(f"adjacency matrix must be square; got {coo.shape}")
    mask = (coo.row < coo.col) & (np.abs(coo.data) > tol)
    edges = np.stack([coo.row[mask], coo.col[mask]], axis=1)
    weights = coo.data[mask].astype(float)
    lower = (coo.row > coo.col) & (np.abs(coo.data) > tol)
    if int(lower.sum()) != edges.shape[0]:
        raise GraphError("sparse adjacency matrix must be symmetric")
    if np.any(np.abs(coo.data[coo.row == coo.col]) > tol):
        raise GraphError("adjacency matrix must have a zero diagonal")
    return from_edges(coo.shape[0], edges, weights, combine="sum")


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
    usable on scale-tier graphs.  Falls back to the pure-Python BFS when
    SciPy is unavailable.
    """
    n = graph.num_nodes
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0
    try:
        from scipy import sparse
        from scipy.sparse import csgraph
    except ImportError:  # pragma: no cover - scipy is a core dependency
        return graph.connected_components()
    adjacency = sparse.csr_matrix(
        (graph.weights, graph.indices, graph.indptr), shape=(n, n)
    )
    # The CSR is symmetric, so its strong components are its connected
    # components; asking for them skips scipy's transpose-and-add.
    count, raw = csgraph.connected_components(
        adjacency, directed=True, connection="strong"
    )
    # Renumber scipy's labels into first-discovery (min-node-id) order so
    # the result is exchangeable with the Graph method's.
    first_node = np.full(count, n, dtype=np.int64)
    np.minimum.at(first_node, raw, np.arange(n, dtype=np.int64))
    relabel = np.empty(count, dtype=np.int64)
    relabel[np.argsort(first_node, kind="stable")] = np.arange(count)
    return relabel[raw], count


def largest_component_fast(graph):
    """Largest connected component, vectorized.

    The scale-tier twin of :meth:`Graph.largest_component`: same
    ``(subgraph, original_ids)`` contract and the same tie-break (the
    earliest-discovered component among the largest), built from
    :func:`connected_component_labels` + :func:`induced_subgraph_fast`.
    """
    if graph.num_nodes == 0:
        from repro.exceptions import EmptyGraphError

        raise EmptyGraphError("largest_component of an empty graph")
    labels, count = connected_component_labels(graph)
    if count == 1:
        return graph, np.arange(graph.num_nodes)
    sizes = np.bincount(labels, minlength=count)
    # argmax picks the lowest label among ties = earliest discovered.
    return induced_subgraph_fast(graph, labels == int(sizes.argmax()))


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
