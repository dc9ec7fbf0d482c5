"""The core graph data structure.

The :class:`Graph` class is an immutable, weighted, undirected graph stored in
compressed-sparse-row (CSR) form. Every algorithm in the library operates on
this single representation; the paper's data-model discussion (Section 2.1)
motivates exactly this choice — graphs and their matrices, not flat tables,
are the natural model for the noisy, sparse data considered here.

Nodes are the integers ``0 .. n-1``. Each undirected edge ``{u, v}`` with
weight ``w > 0`` is stored twice (once in each endpoint's adjacency slice), so
the CSR arrays double as the adjacency matrix of the graph.

Self-loops are rejected: none of the diffusion or partitioning theory in the
paper uses them, and forbidding them keeps the Laplacian definitions
unambiguous.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro._validation import check_node
from repro.exceptions import EmptyGraphError, GraphError


class Graph:
    """An immutable weighted undirected graph in CSR form.

    Parameters
    ----------
    indptr:
        ``(n + 1,)`` int array; node ``i``'s incident edges occupy positions
        ``indptr[i]:indptr[i+1]`` of ``indices`` and ``weights``.
    indices:
        ``(2m,)`` int array of neighbor ids.
    weights:
        ``(2m,)`` float array of positive edge weights, symmetric with
        ``indices`` (edge ``{u, v}`` appears in both adjacency slices with
        the same weight).
    validate:
        When true (the default) the arrays are checked for structural
        soundness: symmetry, positivity, sortedness, and absence of
        self-loops and parallel edges, with whole-array checks that
        scale to millions of arcs. The builders in
        :mod:`repro.graph.build` validate their *inputs* (ids, weights,
        self-loops, duplicates) and then construct with
        ``validate=False``, since the CSR they assemble is sound by
        construction.

    Notes
    -----
    Prefer the builders (:func:`repro.graph.build.from_edges` and friends)
    over calling this constructor directly.

    The arrays are taken without copying.  ``total_volume`` is computed
    once.  :func:`repro.ncp.runner.graph_fingerprint` memoizes its digest
    on the graph only while all three CSR arrays own their data and are
    read-only, as the builders' arrays do; a graph over a view of a
    writable array, a memmap or shared memory is hashed on every call.
    """

    __slots__ = (
        "_indptr", "_indices", "_weights", "_degrees", "_total_volume",
        "_fingerprint",
    )

    def __init__(self, indptr, indices, weights, *, validate=True):
        self._indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        # Integer neighbor ids keep their storage dtype: a memmap-backed
        # int32 array from repro.graph.storage stays a zero-copy view
        # instead of being widened into a resident int64 copy.  Anything
        # non-integer is normalized to int64 as before.
        indices = np.ascontiguousarray(indices)
        if not np.issubdtype(indices.dtype, np.integer):
            indices = np.ascontiguousarray(indices, dtype=np.int64)
        self._indices = indices
        self._weights = np.ascontiguousarray(weights, dtype=np.float64)
        if validate:
            self._validate()
        # Weighted degrees: d_i = sum of incident edge weights, summed
        # per CSR row with reduceat so no arc-length index temp is
        # materialized (on a 100M-edge graph that temp would be 1.6 GB).
        if self._indices.size:
            # Arcs are contiguous, so the nonempty rows' start offsets
            # are strictly increasing and tile the weight array exactly:
            # reduceat over them sums each row's incident weights.
            nonempty = np.flatnonzero(np.diff(self._indptr))
            degrees = np.zeros(self.num_nodes)
            degrees[nonempty] = np.add.reduceat(
                self._weights, self._indptr[nonempty]
            )
            self._degrees = degrees
        else:
            self._degrees = np.zeros(self.num_nodes)
        for arr in (self._degrees, self._indptr, self._indices,
                    self._weights):
            if arr.flags.writeable:
                arr.setflags(write=False)
        self._total_volume = float(self._degrees.sum())
        # Memo of :func:`repro.ncp.runner.graph_fingerprint`.
        self._fingerprint = None

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self):
        indptr, indices, weights = self._indptr, self._indices, self._weights
        if indptr.ndim != 1 or indptr.size == 0:
            raise GraphError("indptr must be a 1-d array of length n + 1")
        if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise GraphError("indptr must start at 0 and be nondecreasing")
        if indices.shape != weights.shape or indices.ndim != 1:
            raise GraphError("indices and weights must be 1-d arrays of equal length")
        if indptr[-1] != indices.size:
            raise GraphError("indptr[-1] must equal the number of stored arcs")
        n = indptr.size - 1
        if not indices.size:
            return
        if indices.min() < 0 or indices.max() >= n:
            raise GraphError("neighbor ids must lie in [0, n)")
        if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
            raise GraphError("edge weights must be positive and finite")
        src = np.repeat(np.arange(n), np.diff(indptr))
        # The first offending node wins; at one node a self-loop is reported
        # before an unsorted row.
        loops = src[indices == src]
        same_row = src[1:] == src[:-1]
        unsorted = src[1:][same_row & (indices[1:] <= indices[:-1])]
        first_loop = int(loops[0]) if loops.size else n
        first_unsorted = int(unsorted[0]) if unsorted.size else n
        if first_loop < n and first_loop <= first_unsorted:
            raise GraphError(f"self-loop at node {first_loop} is not allowed")
        if first_unsorted < n:
            raise GraphError(
                f"adjacency of node {first_unsorted} must be strictly sorted "
                "(no parallel edges)"
            )
        # Symmetry: each arc (u, v, w) must have a mirror (v, u, w). Rows are
        # strictly sorted, so the arcs are already in (src, dst) order and the
        # (dst, src) keys are unique.
        mirror = np.argsort(indices.astype(np.int64) * n + src)
        if not (
            np.array_equal(src, indices[mirror])
            and np.array_equal(indices, src[mirror])
            and np.allclose(weights, weights[mirror])
        ):
            raise GraphError("adjacency structure is not symmetric")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_nodes(self):
        """Number of nodes ``n``."""
        return self._indptr.size - 1

    @property
    def num_edges(self):
        """Number of undirected edges ``m``."""
        return self._indices.size // 2

    @property
    def indptr(self):
        """CSR row-pointer array (read-only view)."""
        return self._indptr

    @property
    def indices(self):
        """CSR neighbor-id array (read-only view)."""
        return self._indices

    @property
    def weights(self):
        """CSR edge-weight array (read-only view)."""
        return self._weights

    @property
    def degrees(self):
        """Weighted degree vector ``d`` with ``d_i = sum_j A_ij``."""
        return self._degrees

    @property
    def total_volume(self):
        """Total volume ``vol(V) = sum_i d_i = 2 * total edge weight``."""
        return self._total_volume

    def __len__(self):
        return self.num_nodes

    def __repr__(self):
        return (
            f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
            f"total_volume={self.total_volume:.6g})"
        )

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
            and np.array_equal(self._weights, other._weights)
        )

    def __hash__(self):
        return hash(
            (self._indptr.tobytes(), self._indices.tobytes(), self._weights.tobytes())
        )

    # ------------------------------------------------------------------
    # Local access
    # ------------------------------------------------------------------
    def neighbors(self, node):
        """Return the sorted neighbor ids of ``node`` as a read-only array."""
        node = check_node(node, self.num_nodes)
        return self._indices[self._indptr[node]:self._indptr[node + 1]]

    def incident_weights(self, node):
        """Return the weights aligned with :meth:`neighbors`."""
        node = check_node(node, self.num_nodes)
        return self._weights[self._indptr[node]:self._indptr[node + 1]]

    def degree(self, node):
        """Weighted degree of ``node``."""
        node = check_node(node, self.num_nodes)
        return float(self._degrees[node])

    def out_degree_count(self, node):
        """Number of distinct neighbors of ``node`` (unweighted degree)."""
        node = check_node(node, self.num_nodes)
        return int(self._indptr[node + 1] - self._indptr[node])

    def has_edge(self, u, v):
        """Whether the undirected edge ``{u, v}`` exists."""
        u = check_node(u, self.num_nodes, "u")
        v = check_node(v, self.num_nodes, "v")
        row = self.neighbors(u)
        pos = np.searchsorted(row, v)
        return bool(pos < row.size and row[pos] == v)

    def edge_weight(self, u, v):
        """Weight of edge ``{u, v}``, or ``0.0`` when absent."""
        u = check_node(u, self.num_nodes, "u")
        v = check_node(v, self.num_nodes, "v")
        row = self.neighbors(u)
        pos = np.searchsorted(row, v)
        if pos < row.size and row[pos] == v:
            return float(self.incident_weights(u)[pos])
        return 0.0

    def edges(self):
        """Iterate over undirected edges as ``(u, v, weight)`` with ``u < v``."""
        for u in range(self.num_nodes):
            start, stop = self._indptr[u], self._indptr[u + 1]
            for k in range(start, stop):
                v = int(self._indices[k])
                if u < v:
                    yield u, v, float(self._weights[k])

    def edge_array(self):
        """Return edges as arrays ``(us, vs, ws)`` with ``us < vs`` rowwise."""
        if self._indices.size == 0:
            empty_i = np.empty(0, dtype=np.int64)
            return empty_i, empty_i.copy(), np.empty(0, dtype=float)
        src = np.repeat(np.arange(self.num_nodes), np.diff(self._indptr))
        mask = src < self._indices
        return src[mask], self._indices[mask].copy(), self._weights[mask].copy()

    # ------------------------------------------------------------------
    # Set-level quantities
    # ------------------------------------------------------------------
    def volume(self, nodes):
        """Volume ``vol(S) = sum_{i in S} d_i`` of a node set."""
        mask = self._node_mask(nodes)
        return float(self._degrees[mask].sum())

    def cut_weight(self, nodes):
        """Total weight of edges with exactly one endpoint in ``nodes``."""
        mask = self._node_mask(nodes)
        if self._indices.size == 0:
            return 0.0
        src = np.repeat(mask, np.diff(self._indptr))
        dst = mask[self._indices]
        boundary = src & ~dst
        return float(self._weights[boundary].sum())

    def edge_boundary(self, nodes):
        """Edges ``(u, v, w)`` with ``u`` inside ``nodes`` and ``v`` outside."""
        mask = self._node_mask(nodes)
        out = []
        for u in np.flatnonzero(mask):
            start, stop = self._indptr[u], self._indptr[u + 1]
            for k in range(start, stop):
                v = int(self._indices[k])
                if not mask[v]:
                    out.append((int(u), v, float(self._weights[k])))
        return out

    def _node_mask(self, nodes):
        """Convert a node collection or boolean mask into a boolean mask."""
        n = self.num_nodes
        arr = np.asarray(nodes)
        if arr.dtype == bool:
            if arr.shape != (n,):
                raise GraphError(
                    f"boolean node mask must have shape ({n},); got {arr.shape}"
                )
            return arr
        if arr.size == 0:
            return np.zeros(n, dtype=bool)
        arr = arr.astype(np.int64, copy=False)
        if arr.min() < 0 or arr.max() >= n:
            raise GraphError(f"node ids must lie in [0, {n})")
        mask = np.zeros(n, dtype=bool)
        mask[arr] = True
        return mask

    # ------------------------------------------------------------------
    # Traversal and structure
    # ------------------------------------------------------------------
    def bfs_distances(self, source, *, max_distance=None):
        """Unweighted BFS hop distances from ``source``.

        Returns an int array with ``-1`` marking unreachable nodes. When
        ``max_distance`` is given the search stops expanding past that depth
        (nodes further away keep ``-1``).
        """
        source = check_node(source, self.num_nodes, "source")
        dist = np.full(self.num_nodes, -1, dtype=np.int64)
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            du = dist[u]
            if max_distance is not None and du >= max_distance:
                continue
            for v in self.neighbors(u):
                if dist[v] < 0:
                    dist[v] = du + 1
                    queue.append(int(v))
        return dist

    def connected_components(self):
        """Label nodes by connected component.

        Returns
        -------
        labels:
            ``(n,)`` int array of component ids, numbered ``0, 1, ...`` in
            order of first discovery.
        count:
            Number of components.
        """
        n = self.num_nodes
        labels = np.full(n, -1, dtype=np.int64)
        current = 0
        for start in range(n):
            if labels[start] >= 0:
                continue
            labels[start] = current
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for v in self.neighbors(u):
                    if labels[v] < 0:
                        labels[v] = current
                        queue.append(int(v))
            current += 1
        return labels, current

    def is_connected(self):
        """Whether the graph is connected (the empty graph is not)."""
        if self.num_nodes == 0:
            return False
        return self.connected_components()[1] == 1

    def induced_subgraph(self, nodes):
        """Induce the subgraph on ``nodes``.

        Parameters
        ----------
        nodes:
            Node ids (any order, no duplicates) or a boolean mask.

        Returns
        -------
        subgraph:
            A new :class:`Graph` on the selected nodes, renumbered
            ``0 .. k-1`` in increasing original-id order.
        original_ids:
            ``(k,)`` array mapping new ids back to original ids.
        """
        mask = self._node_mask(nodes)
        original_ids = np.flatnonzero(mask)
        k = original_ids.size
        new_id = np.full(self.num_nodes, -1, dtype=np.int64)
        new_id[original_ids] = np.arange(k)
        indptr = np.zeros(k + 1, dtype=np.int64)
        indices_parts, weight_parts = [], []
        for new_u, u in enumerate(original_ids):
            start, stop = self._indptr[u], self._indptr[u + 1]
            row = self._indices[start:stop]
            keep = mask[row]
            indices_parts.append(new_id[row[keep]])
            weight_parts.append(self._weights[start:stop][keep])
            indptr[new_u + 1] = indptr[new_u] + int(keep.sum())
        indices = (
            np.concatenate(indices_parts) if indices_parts else np.empty(0, np.int64)
        )
        weights = (
            np.concatenate(weight_parts) if weight_parts else np.empty(0, float)
        )
        sub = Graph(indptr, indices, weights, validate=False)
        return sub, original_ids

    def largest_component(self):
        """Return the induced subgraph of the largest connected component.

        Returns ``(subgraph, original_ids)`` as in :meth:`induced_subgraph`.
        Raises :class:`EmptyGraphError` on the empty graph.
        """
        if self.num_nodes == 0:
            raise EmptyGraphError("largest_component of an empty graph")
        labels, count = self.connected_components()
        if count == 1:
            return self, np.arange(self.num_nodes)
        sizes = np.bincount(labels, minlength=count)
        return self.induced_subgraph(labels == int(sizes.argmax()))

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_dense(self):
        """Dense ``(n, n)`` adjacency matrix (small graphs / tests only)."""
        n = self.num_nodes
        dense = np.zeros((n, n))
        if self._indices.size:
            src = np.repeat(np.arange(n), np.diff(self._indptr))
            dense[src, self._indices] = self._weights
        return dense
