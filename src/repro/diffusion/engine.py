"""Frontier-batched, strongly local diffusion engine for ACL push.

Section 3.3 of the paper argues that push-style local diffusion does work
proportional to the *output*, not the graph: "the running time depends on
the size of the output and is independent even of the number of nodes in
the graph". The scalar implementation in :mod:`repro.diffusion.push`
realizes that asymptotic claim one node at a time through a Python deque,
which makes the interpreter — not the hardware — the bottleneck for the
NCP ensembles behind Figure 1 (thousands of push runs over a seed × α × ε
grid).

This module is the vectorized counterpart. Two ideas:

* **Frontier sweeps** (single diffusion): instead of popping one node at a
  time, select *every* node with ``r_u ≥ ε d_u`` at once and push them all
  in one synchronized NumPy scatter-add over the CSR arrays. Because each
  push is a linear operation on ``(p, r)``, the push invariant

      p + pr_α(r) = pr_α(s)

  holds *exactly* after every sweep, regardless of the order in which
  pushes are applied — simultaneous pushes are just a different schedule
  of the same commuting updates. On exit ``r_u < ε d_u`` everywhere, so
  the ε·d entrywise guarantee ``|p_u − pr_α(s)_u| ≤ ε d_u`` of [1] is
  identical to the scalar algorithm's.

* **Column batching** (many diffusions): independent diffusions — distinct
  seeds, teleport values α, and thresholds ε — are columns of one
  approximation/residual state. One frontier sweep then pushes every
  active (node, column) pair with a single ``bincount`` scatter over the
  distinct arc targets, amortizing the CSR gather across the whole batch.

Work accounting matches the scalar algorithm: ``num_pushes`` counts
(node, column) push events, ``work`` charges ``1 + deg(u)`` per push, and
``pushed_volume`` records ``Σ_pushes d_u`` — the quantity the classic
``O(1/(ε α))`` bound controls via ``ε α Σ_pushes d_u ≤ ||s||_1``.

Outside the wide path no sweep or stage does ``O(n)`` work, and none holds
``O(n)`` state. Seeds are node ids (a vector seed is read once and kept
on its nonzeros). The state lives on compact row slots, one per node the batch
has reached, in arrival order: a sparse-set map from node id to slot is
allocated uninitialized and never filled, and the per-slot arrays double
when full. A sweep changes the residual only on the rows it pushes and on
their arc targets, so the next sweep tests only those candidate rows; it
expands only the pushed (node, column) pairs along their arcs; and it
scatters into the distinct targets. A sweep thus costs its pushed volume
plus ``candidates × B``, the output-sized work of Section 3.3. The
heat-kernel stages are held the same way, as (support rows, values), and
its accumulated output and touched sets live on the slots of the rows any
stage kept. So a call allocates ``O(n)`` bytes only for two uninitialized
index maps, whatever ``n`` is.

Only a frontier holding a quarter of the arcs switches a sweep or stage to
one sparse matmul over the whole adjacency, the cheaper schedule once the
support saturates the graph. The PPR state then moves to dense ``(n, B)``
arrays for the rest of the call, and the wide sweep does its arithmetic on
the live columns only. Once at most half of the working columns have an
entry with ``r_u ≥ ε d_u``, the finished ones are written to the outputs
and dropped from every per-column array. A column with no such entry
never pushes again, since only its own pushes change its residual, and
every op of a sweep (the sparse matmul included) is per column, so
retiring columns changes no bit of any output. The retired working arrays
are C-contiguous copies, like the buffers that the sweep's temporaries are
written into with ``out=`` (allocated on the first wide sweep), so no op
of a later sweep runs strided. Each wide sweep copies its ``r_u ≥ ε d_u``
mask into a 0/1 float matrix and takes its frontier rows from that
matrix's row sums and its live columns from the push counts it books
anyway; both are exact integer matmuls.

Results hold each column on the rows the batch reached: ``sparse_column``
gives column ``b`` as the ``(rows, values)`` pair of its nonzero entries,
which is how the NCP pipeline reads it (``support_columns`` of the specs
in :mod:`repro.dynamics`), so its per-column sweep never touches the other
rows. The dense ``(n, B)`` fields are built on first access.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro._validation import (
    check_int,
    check_node,
    check_positive,
    check_probability,
    check_vector,
)
from repro.diffusion._csr import gather_csr_arcs
from repro.diffusion.push import PushResult
from repro.exceptions import InvalidParameterError
from repro.graph.matrices import adjacency_matrix

__all__ = [
    "BatchHeatKernelResult",
    "BatchPushResult",
    "batch_hk_push",
    "batch_ppr_push",
    "gather_csr_arcs",
    "ppr_push_frontier",
]


def _on_all_rows(num_nodes, rows, values):
    """``values`` held on the ascending ``rows``, as a dense array.

    Returns ``values`` itself when ``rows`` covers every node.
    """
    if rows.size == num_nodes:
        return values
    dense = np.zeros((num_nodes, *values.shape[1:]), dtype=values.dtype)
    dense[rows] = values
    return dense


class _RowColumns:
    """What both batch results share: columns held on ascending ``rows``.

    Subclasses have ``rows``, ``row_approximation`` and ``num_columns``.
    """

    def _check_column(self, b):
        b = int(b)
        if not 0 <= b < self.num_columns:
            raise InvalidParameterError(
                f"column must lie in [0, {self.num_columns}); got {b}"
            )
        return b

    def sparse_column(self, b):
        """Column ``b``'s approximation as ``(rows, values)``.

        ``rows`` are the ascending nodes where it is nonzero and
        ``values`` its entries there; no length-``n`` array is built.
        """
        column = self.row_approximation[:, self._check_column(b)]
        nonzero = np.flatnonzero(column)
        return self.rows[nonzero], column[nonzero]


@dataclass
class BatchPushResult(_RowColumns):
    """Output of the batched frontier push engine.

    Columns enumerate the grid ``seeds × alphas × epsilons`` in C order
    (seed slowest, epsilon fastest), matching
    ``for seed: for alpha: for epsilon`` iteration.

    Attributes
    ----------
    rows:
        Ascending node ids the state was held on: every row some column
        charged, or every row after a wide sweep.  Both state matrices
        are zero on all other rows.
    row_approximation:
        ``(rows.size, B)`` matrix; column ``b`` is the vector ``p`` of
        diffusion ``b`` (entrywise underestimate of the exact PPR) on
        ``rows``.
    row_residual:
        ``(rows.size, B)`` matrix of final residuals (``r_u < ε_b d_u``)
        on ``rows``.
    num_nodes:
        Number of nodes ``n`` of the graph.
    support:
        Ascending rows pushed in any column, every row after a wide
        sweep; ``approximation`` is zero on all other rows.  A subset of
        ``rows``, which also holds the rows that only received residual.
    seed_indices:
        ``(B,)`` index into the ``seeds`` argument for each column.
    alphas:
        ``(B,)`` teleport parameter per column.
    epsilons:
        ``(B,)`` threshold per column.
    num_pushes:
        ``(B,)`` push events executed per column.
    work:
        ``(B,)`` total edge work ``Σ_pushes (1 + deg(u))`` per column.
    pushed_volume:
        ``(B,)`` ``Σ_pushes d_u`` per column — satisfies
        ``ε α · pushed_volume ≤ ||s||_1``, the paper's locality bound.
    num_sweeps:
        Number of synchronized frontier sweeps until all columns
        converged.

    ``approximation`` and ``residual`` are the dense ``(n, B)`` matrices,
    built from the row state on first access.
    """

    rows: np.ndarray
    row_approximation: np.ndarray
    row_residual: np.ndarray
    num_nodes: int
    support: np.ndarray
    seed_indices: np.ndarray
    alphas: np.ndarray
    epsilons: np.ndarray
    num_pushes: np.ndarray
    work: np.ndarray
    pushed_volume: np.ndarray
    num_sweeps: int

    @property
    def num_columns(self):
        """Number of batched diffusions ``B``."""
        return int(self.alphas.size)

    @cached_property
    def approximation(self):
        """``(n, B)`` approximation matrix."""
        return _on_all_rows(self.num_nodes, self.rows, self.row_approximation)

    @cached_property
    def residual(self):
        """``(n, B)`` final residual matrix."""
        return _on_all_rows(self.num_nodes, self.rows, self.row_residual)

    def column(self, b):
        """Extract column ``b`` as a scalar-compatible :class:`PushResult`."""
        b = self._check_column(b)
        p = self.row_approximation[:, b]
        r = self.row_residual[:, b]
        return PushResult(
            approximation=_on_all_rows(self.num_nodes, self.rows, p).copy(),
            residual=_on_all_rows(self.num_nodes, self.rows, r).copy(),
            num_pushes=int(self.num_pushes[b]),
            work=int(self.work[b]),
            touched=self.rows[(p > 0) | (r > 0)],
            epsilon=float(self.epsilons[b]),
            alpha=float(self.alphas[b]),
        )


def _seed_block(graph, seeds):
    """Seed specs as one block over the rows any of them charges.

    Returns ``(rows, block, mass)``: the ascending rows where some seed is
    nonzero, the ``(rows.size, S)`` seed values there, and each seed's
    ℓ1 mass.  A node id is an indicator seed and reads nothing else of
    the graph; a vector is read whole once.  The masses are added as
    numpy sums the columns of the stacked ``(n, S)`` seed matrix:
    pairwise over the whole vector for a single seed, row by row (so the
    zeros drop out) for several.
    """
    n = graph.num_nodes
    entries = []
    for i, spec in enumerate(seeds):
        if isinstance(spec, (int, np.integer)) and not isinstance(spec, bool):
            node = check_node(spec, n, "seed node")
            entries.append((np.array([node]), np.ones(1), None))
            continue
        vector = check_vector(spec, n, f"seeds[{i}]")
        if np.any(vector < 0):
            raise InvalidParameterError(
                f"seeds[{i}] must be a nonnegative seed vector"
            )
        rows = np.flatnonzero(vector)
        entries.append((rows, vector[rows], vector))
    if not entries:
        raise InvalidParameterError("seeds must be nonempty")
    rows = np.unique(np.concatenate([entry[0] for entry in entries]))
    block = np.zeros((rows.size, len(entries)))
    mass = np.zeros(len(entries))
    for i, (seed_rows, values, vector) in enumerate(entries):
        block[np.searchsorted(rows, seed_rows), i] = values
        if len(entries) == 1 and vector is not None:
            mass[i] = vector.sum()
        elif values.size:
            mass[i] = np.cumsum(values)[-1]
    return rows, block, mass


class _RowSlots:
    """Compact row slots for the nodes a batch has reached.

    Node ``nodes[i]`` owns row ``i`` of every array in ``state``; slots
    are handed out in arrival order.  ``slot_of`` is a sparse-set map:
    ``slot_of[u]`` counts only when it is below ``size`` and points back
    at ``u``, so it is allocated uninitialized and never filled.  The
    state arrays double when full; new rows start at zero.
    """

    def __init__(self, num_nodes, row_shapes, capacity=64):
        self.slot_of = np.empty(num_nodes, dtype=np.int64)
        self.nodes = np.empty(capacity, dtype=np.int64)
        self.size = 0
        self.state = [
            np.zeros((capacity, *shape), dtype=dtype)
            for shape, dtype in row_shapes
        ]

    def slots(self, nodes):
        """The slots of the distinct ``nodes``, adding those not held."""
        slots = self.slot_of[nodes]
        held = (slots >= 0) & (slots < self.size)
        held[held] = self.nodes[slots[held]] == nodes[held]
        if not held.all():
            new = nodes[~held]
            fresh = np.arange(self.size, self.size + new.size)
            self._reserve(self.size + new.size)
            self.nodes[fresh] = new
            self.slot_of[new] = fresh
            slots[~held] = fresh
            self.size += new.size
        return slots

    def _reserve(self, size):
        capacity = self.nodes.size
        if size <= capacity:
            return
        capacity = max(2 * capacity, size)
        nodes = np.empty(capacity, dtype=np.int64)
        nodes[:self.size] = self.nodes[:self.size]
        self.nodes = nodes
        for i, values in enumerate(self.state):
            grown = np.zeros((capacity, *values.shape[1:]), dtype=values.dtype)
            grown[:self.size] = values[:self.size]
            self.state[i] = grown

    def sorted_state(self):
        """The slot order that sorts the held nodes, the nodes in that
        order, and every state array in that order."""
        order = np.argsort(self.nodes[:self.size])
        return order, self.nodes[order], [values[order] for values in self.state]


# OpenBLAS contracts a product of at most this many multiply-adds with a
# small-matrix kernel whose rounding depends on the operand's row count;
# larger products round each row the same wherever it sits.
_BLAS_SMALL_PRODUCT = 1_000_000

# numpy sums at most this many contiguous floats in one block of eight
# interleaved partial sums (its ``PW_BLOCKSIZE``), halving larger runs.
_PAIRWISE_BLOCK = 128


def _pairwise_sum(positions, values, n):
    """``v.sum()`` of the length-``n`` vector ``v`` holding ``values`` at
    the ascending ``positions`` and 0.0 elsewhere, bit for bit.

    numpy sums a contiguous vector pairwise: runs of fewer than 8 floats
    left to right, runs of at most ``_PAIRWISE_BLOCK`` in eight
    interleaved partial sums combined as a tree (the tail past the last
    multiple of 8 added after), and longer runs as two halves cut at a
    multiple of 8.  A run without entries sums to +0.0 and leaves any sum
    it joins unchanged, so only runs holding entries are visited and the
    cost follows ``positions.size``, not ``n``.
    """
    positions = positions.tolist()
    values = values.tolist()

    def run_sum(start, size, lo, hi):
        # ``positions[lo:hi]`` are the entries inside [start, start + size).
        if lo == hi:
            return 0.0
        if size < 8:
            total = 0.0
            for value in values[lo:hi]:
                total += value
            return total
        if size <= _PAIRWISE_BLOCK:
            lanes = [0.0] * 8
            tail = start + size - size % 8
            i = lo
            while i < hi and positions[i] < tail:
                lanes[(positions[i] - start) % 8] += values[i]
                i += 1
            total = (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
                     + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])))
            for value in values[i:hi]:
                total += value
            return total
        half = size // 2
        half -= half % 8
        mid = bisect_left(positions, start + half, lo, hi)
        return (run_sum(start, half, lo, mid)
                + run_sum(start + half, size - half, mid, hi))

    return run_sum(0, n, 0, len(positions))


def _distinct(values, slot_of):
    """Sorted distinct ``values`` and the index of each entry among them.

    ``slot_of`` is a length-``n`` scratch map read and written only at
    ``values``, so the cost follows ``values.size``, not ``n``, and only
    the distinct values are sorted.
    """
    order = np.arange(values.size)
    slot_of[values] = order
    distinct = np.sort(values[slot_of[values] == order])
    slot_of[distinct] = np.arange(distinct.size)
    return distinct, slot_of[values]


def _sorted_union(rows, targets):
    """Union of two sorted arrays of distinct node ids, sorted."""
    pos = np.searchsorted(targets, rows)
    inside = pos < targets.size
    inside[inside] = targets[pos[inside]] == rows[inside]
    # Two sorted runs: the stable sort (timsort) merges them in one pass.
    return np.sort(np.concatenate((targets, rows[~inside])), kind="stable")


def _spread(graph, rows, share, mask, slot_of):
    """Scatter ``share[i, c]`` along every arc leaving ``rows[i]``.

    Returns ``(targets, sums)``: the sorted distinct arc targets and the
    ``(targets.size, B)`` matrix ``sums[j, c] = Σ_i w(rows[i], targets[j])
    share[i, c]`` over the (row, column) pairs set in ``mask``.  Unset
    pairs carry zero charge and are never expanded, so the cost is the
    pushed arc volume, not frontier arcs × B.  Each bin adds its terms in
    (row, arc) order, the order of a CSR matmul over the same rows, so the
    sums are bitwise those of the full scatter.
    """
    num_columns = share.shape[1]
    arc_positions, counts = gather_csr_arcs(graph.indptr, rows)
    targets, slots = _distinct(graph.indices[arc_positions], slot_of)
    pair_row, pair_col = np.nonzero(mask)
    # ``row_arcs`` is an indptr over ``arc_positions``: gathering it per
    # (row, column) pair lists that pair's arcs, in row-major pair order.
    row_arcs = np.concatenate(([0], np.cumsum(counts)))
    pair_arcs, pair_counts = gather_csr_arcs(row_arcs, pair_row)
    contributions = graph.weights[arc_positions[pair_arcs]] * np.repeat(
        share[pair_row, pair_col], pair_counts
    )
    flat = slots[pair_arcs] * num_columns + np.repeat(pair_col, pair_counts)
    sums = np.bincount(
        flat, weights=contributions, minlength=targets.size * num_columns
    )
    return targets, sums.reshape(targets.size, num_columns)


def _view(buffer, shape):
    """A C-contiguous ``shape`` view of the front of a flat ``buffer``."""
    return buffer[: shape[0] * shape[1]].reshape(shape)


def _store(outputs, state, columns, which):
    """Copy the working ``state`` columns ``which`` into ``outputs``."""
    for output, values in zip(outputs, state):
        output[..., columns[which]] = values[..., which]


def batch_ppr_push(graph, seeds, *, alphas=(0.15,), epsilons=(1e-4,),
                   max_pushes=None):
    """Run many independent ACL push diffusions in synchronized sweeps.

    One column per ``(seed, alpha, epsilon)`` grid point; every sweep
    selects all (node, column) pairs with ``r_u ≥ ε d_u`` and pushes them
    simultaneously with vectorized scatter-adds. The per-column output is
    equivalent to :func:`repro.diffusion.push.approximate_ppr_push` up to
    the shared entrywise guarantee ``|p_u − pr_α(s)_u| ≤ ε d_u``
    (Section 3.3; the push invariant holds exactly for any push schedule,
    so only the ε-sized residual differs between schedules).

    Parameters
    ----------
    graph:
        Graph with positive degrees.
    seeds:
        Sequence of seed specs. Integers are treated as node ids (an
        indicator seed on that node); anything else must be a nonnegative
        length-``n`` vector.
    alphas:
        Teleport probabilities in (0, 1); crossed with ``seeds`` and
        ``epsilons``.
    epsilons:
        Degree-normalized truncation thresholds in (0, 1).
    max_pushes:
        Optional per-column safety cap; defaults to the provable bound
        ``||s||_1 / (ε α)`` per column (plus slack).

    Returns
    -------
    BatchPushResult

    Raises
    ------
    InvalidParameterError
        On negative seeds, nonpositive degrees, out-of-range parameters,
        or a column exceeding its push cap.
    """
    alphas = np.asarray(
        [check_probability(a, "alpha") for a in np.atleast_1d(alphas)]
    )
    epsilons = np.asarray(
        [check_probability(e, "epsilon") for e in np.atleast_1d(epsilons)]
    )
    degrees = graph.degrees
    if degrees.size and degrees.min() <= 0:
        raise InvalidParameterError("push requires positive degrees")
    seed_rows, seed_block, seed_mass = _seed_block(graph, seeds)
    num_seeds = seed_block.shape[1]

    # Column grid: seed slowest, epsilon fastest (C order).
    seed_idx = np.repeat(np.arange(num_seeds), alphas.size * epsilons.size)
    alpha_col = np.tile(np.repeat(alphas, epsilons.size), num_seeds)
    eps_col = np.tile(epsilons, num_seeds * alphas.size)
    num_columns = seed_idx.size

    seed_mass = seed_mass[seed_idx]
    if max_pushes is None:
        # Same degree-aware count cap as the scalar reference: the
        # O(1/(eps a)) bound controls pushed volume, so the push count
        # is bounded by ||s||_1 / (eps a min(1, d_min)).
        degree_floor = min(1.0, float(degrees.min()))
        push_caps = (
            np.ceil(seed_mass / (eps_col * alpha_col * degree_floor)) + 8
        )
    else:
        push_caps = np.full(num_columns, float(max_pushes))

    n = graph.num_nodes
    indptr = graph.indptr
    retained = 0.5 * (1.0 - alpha_col)
    spread_share = 1.0 - alpha_col
    slot_of = np.empty(n, dtype=np.int64)
    # The state (approximation, residual, pushed-row flags) on the rows
    # reached so far; ``None`` once the first wide sweep has moved the
    # state to dense ``(n, B)`` arrays, which also builds the O(n B)
    # threshold matrix and sweep buffers and the O(m) sparse matrix.
    reached = _RowSlots(n, (
        ((num_columns,), float), ((num_columns,), float), ((), bool),
    ), capacity=max(64, 2 * seed_rows.size))
    adjacency = None
    num_sweeps = 0

    # A sweep changes the residual only on the rows it pushes and on
    # their arc targets, so the next frontier lies among those rows.
    # ``candidates is None`` means every row is scanned (after a wide
    # sweep, whose candidate set would be most of the graph anyway).
    # ``candidate_slots`` holds the candidates' rows of the state.
    candidates = seed_rows
    candidate_slots = reached.slots(seed_rows)
    approximation, residual, ever_pushed = reached.state
    residual[candidate_slots] = seed_block[:, seed_idx]
    num_pushes = np.zeros(num_columns, dtype=np.int64)
    work = np.zeros(num_columns, dtype=np.int64)
    pushed_volume = np.zeros(num_columns)
    # The sweeps update the live columns only, and ``columns`` maps each
    # to its output column; until a wide sweep retires the finished
    # columns, the working state is the outputs themselves.
    columns = np.arange(num_columns)
    grid_alphas, grid_epsilons = alpha_col, eps_col

    while True:
        if candidates is None:
            active = np.greater_equal(
                residual, thresholds, out=_view(active_buffer, residual.shape)
            )
            # ``update`` holds ``active`` as 0/1 floats until the pushes
            # are counted; row sums and push counts are integers below
            # 2**53, so the float matmuls that test for any active entry
            # are exact.
            update = _view(sweep_buffers[2], residual.shape)
            np.copyto(update, active)
            rows = slots = np.flatnonzero(update @ column_ones[:columns.size])
            mask = None
        else:
            active = None
            candidate_mask = (
                residual[candidate_slots] >= degrees[candidates, None] * eps_col
            )
            hit = candidate_mask.any(axis=1)
            rows, slots = candidates[hit], candidate_slots[hit]
            mask = candidate_mask[hit]
        if rows.size == 0:
            break
        num_sweeps += 1
        row_arcs = indptr[rows + 1] - indptr[rows]

        if 4 * int(row_arcs.sum()) >= graph.indices.size:
            # Wide sweep: the frontier covers most arcs, so one sparse
            # matmul over the whole adjacency beats gathering CSR slices.
            if adjacency is None:
                _, held, state = reached.sorted_state()
                approximation, residual = (
                    _on_all_rows(n, held, values) for values in state[:2]
                )
                reached = None
                outputs = (approximation, residual, num_pushes, work,
                           pushed_volume)
                adjacency = adjacency_matrix(graph)
                thresholds = degrees[:, None] * eps_col
                twice_degrees = 2.0 * degrees[:, None]
                column_ones = np.ones(num_columns)
                # Per-row weights of the push counters: one push and
                # ``1 + deg(u)`` work.
                push_weights = np.stack((np.ones(n), 1.0 + np.diff(indptr)))
                # The sweep temporaries, written with ``out=`` on every
                # wide sweep; retiring columns only shortens their views.
                sweep_buffers = np.empty((3, residual.size))
                active_buffer = np.empty(residual.size, dtype=bool)
            if active is None:
                # The frontier came from the candidate rows.
                update = _view(sweep_buffers[2], residual.shape)
                update.fill(0.0)
                update[rows] = mask
            # A column is live while it has a push to make.
            counts = push_weights @ update
            live = counts[0] > 0
            if 2 * np.count_nonzero(live) <= live.size:
                # Retire the finished columns.  None has an active entry,
                # and only a column's own pushes change its residual, so
                # none pushes again: store them and drop them from every
                # per-column array.  Each op of a sweep is per column, so
                # the live columns' results are bitwise unchanged.
                # ``compress`` copies each array C-contiguous, as the
                # sweep buffers are, so no later op runs strided.
                state = (approximation, residual, num_pushes, work,
                         pushed_volume)
                _store(outputs, state, columns, ~live)
                (approximation, residual, num_pushes, work, pushed_volume,
                 alpha_col, eps_col, retained, spread_share, push_caps,
                 thresholds, columns, update, counts) = (
                    np.compress(live, values, axis=-1) for values in (
                        *state, alpha_col, eps_col, retained, spread_share,
                        push_caps, thresholds, columns, update, counts,
                    )
                )
            pushed, scaled = (
                _view(buffer, residual.shape) for buffer in sweep_buffers[:2]
            )
            np.multiply(residual, update, out=pushed)
            pushes, arcs = counts
            num_pushes += pushes.astype(np.int64)
            work += arcs.astype(np.int64)
            pushed_volume += degrees @ update
            np.multiply(alpha_col, pushed, out=update)
            approximation += update
            np.divide(pushed, twice_degrees, out=scaled)
            spread = adjacency @ scaled
            # residual += (1 - α) spread + retained pushed - pushed
            np.multiply(spread_share, spread, out=spread)
            np.multiply(retained, pushed, out=update)
            np.add(spread, update, out=update)
            np.subtract(update, pushed, out=update)
            residual += update
            candidates = None
        else:
            # Narrow sweep: gather only the frontier's CSR slices and
            # scatter-add through one bincount over the distinct arc
            # targets, so every array here is sized by the frontier and
            # its neighbourhood, never by n.
            if mask is None:
                mask = active[rows]
            pushed = np.where(mask, residual[slots], 0.0)
            num_pushes += mask.sum(axis=0)
            work += (1 + row_arcs) @ mask
            pushed_volume += degrees[rows] @ mask
            approximation[slots] += alpha_col * pushed
            residual[slots] -= pushed
            share = spread_share * pushed / (2.0 * degrees[rows, None])
            targets, spread = _spread(graph, rows, share, mask, slot_of)
            candidates = _sorted_union(rows, targets)
            if reached is None:
                target_slots = targets
                candidate_slots = candidates
            else:
                target_slots = reached.slots(targets)
                approximation, residual, ever_pushed = reached.state
                ever_pushed[slots] = True
                candidate_slots = reached.slot_of[candidates]
            residual[target_slots] += spread
            residual[slots] += retained * pushed

        if np.any(num_pushes > push_caps):
            worst = int(np.argmax(num_pushes - push_caps))
            raise InvalidParameterError(
                f"push exceeded max_pushes={int(push_caps[worst])} in "
                f"column {columns[worst]}; epsilon too small?"
            )

    if reached is None:
        if columns.size < num_columns:
            _store(
                outputs,
                (approximation, residual, num_pushes, work, pushed_volume),
                columns, slice(None),
            )
        approximation, residual, num_pushes, work, pushed_volume = outputs
        state_rows = support = np.arange(n)
    else:
        _, state_rows, (approximation, residual, ever_pushed) = (
            reached.sorted_state()
        )
        support = state_rows[ever_pushed]
    return BatchPushResult(
        rows=state_rows,
        row_approximation=approximation,
        row_residual=residual,
        num_nodes=n,
        support=support,
        seed_indices=seed_idx,
        alphas=grid_alphas,
        epsilons=grid_epsilons,
        num_pushes=num_pushes,
        work=work,
        pushed_volume=pushed_volume,
        num_sweeps=num_sweeps,
    )


@dataclass
class BatchHeatKernelResult(_RowColumns):
    """Output of the batched truncated-Taylor heat-kernel engine.

    Columns enumerate the grid ``seeds × ts × epsilons`` in C order
    (seed slowest, epsilon fastest), matching
    ``for seed: for t: for epsilon`` iteration.

    Attributes
    ----------
    rows:
        Ascending rows some stage kept in any column (the batch's
        support); both row matrices are zero on all other rows.
    row_approximation:
        ``(rows.size, B)`` matrix; column ``b`` approximates
        ``exp(-t_b (I − M)) s_b`` on ``rows`` with the same per-stage ε·d
        rounding as the scalar
        :func:`repro.diffusion.hk_push.heat_kernel_push`.
    row_touched:
        ``(rows.size, B)`` bool matrix of the rows each column ever
        assigned nonzero charge.
    num_nodes:
        Number of nodes ``n`` of the graph.
    seed_indices:
        ``(B,)`` index into the ``seeds`` argument for each column.
    ts:
        ``(B,)`` diffusion time per column.
    epsilons:
        ``(B,)`` rounding threshold per column.
    num_terms:
        ``(B,)`` Taylor truncation order per column.
    dropped_mass:
        ``(B,)`` total ℓ1 mass removed by rounding per column (upper bound
        on the rounding error of that column).
    tail_bound:
        ``(B,)`` Poisson tail mass beyond ``num_terms`` per column.
    work:
        ``(B,)`` edge traversals charged per column — identical to the
        scalar accounting ``Σ_stages Σ_{u ∈ support} (1 + deg(u))``.
    num_stages:
        Synchronized Taylor stages executed (the max of ``num_terms``).

    ``approximation`` and ``touched_mask`` are the dense ``(n, B)``
    matrices, built from the row state on first access; ``support`` is
    ``rows``.
    """

    rows: np.ndarray
    row_approximation: np.ndarray
    row_touched: np.ndarray
    num_nodes: int
    seed_indices: np.ndarray
    ts: np.ndarray
    epsilons: np.ndarray
    num_terms: np.ndarray
    dropped_mass: np.ndarray
    tail_bound: np.ndarray
    work: np.ndarray
    num_stages: int

    @property
    def num_columns(self):
        """Number of batched diffusions ``B``."""
        return int(self.ts.size)

    @property
    def support(self):
        """Ascending rows some stage kept in any column."""
        return self.rows

    @cached_property
    def approximation(self):
        """``(n, B)`` approximation matrix."""
        return _on_all_rows(self.num_nodes, self.rows, self.row_approximation)

    @cached_property
    def touched_mask(self):
        """``(n, B)`` bool matrix of nodes ever assigned nonzero charge."""
        return _on_all_rows(self.num_nodes, self.rows, self.row_touched)

    def column(self, b):
        """Extract column ``b`` as a scalar-compatible result object."""
        from repro.diffusion.hk_push import HeatKernelPushResult

        b = self._check_column(b)
        return HeatKernelPushResult(
            approximation=_on_all_rows(
                self.num_nodes, self.rows, self.row_approximation[:, b]
            ).copy(),
            t=float(self.ts[b]),
            num_terms=int(self.num_terms[b]),
            dropped_mass=float(self.dropped_mass[b]),
            tail_bound=float(self.tail_bound[b]),
            touched=self.rows[self.row_touched[:, b]],
            work=int(self.work[b]),
        )


def batch_hk_push(graph, seeds, *, ts=(5.0,), epsilons=(1e-4,),
                  num_terms=None, tail_tol=1e-6):
    """Run many truncated-Taylor heat-kernel diffusions in lockstep stages.

    One column per ``(seed, t, epsilon)`` grid point. The engine exploits
    a structural fact the scalar loop cannot: the rounded stage recursion

        stage_{k+1} = [M stage_k]_ε

    does not involve ``t`` at all — the diffusion time only enters through
    the Taylor weights ``e^{-t} t^k / k!`` and the truncation order. So
    the synchronized recursion runs over the *unique* ``(seed, ε)``
    columns (one scatter per stage for the whole batch), and every
    ``t`` in the grid is accumulated from the shared stages with its own
    weights, truncated at its own order. The whole t-grid costs one
    recursion.

    Per column the stage vectors — and hence rounding decisions, dropped
    mass, work, and touched sets — match the scalar
    :func:`repro.diffusion.hk_push.heat_kernel_push`, so the scalar error
    bound carries over: the ℓ1 error of column ``b`` is at most
    ``dropped_mass[b] + tail_bound[b]``.

    Parameters
    ----------
    graph:
        Graph with positive degrees.
    seeds:
        Sequence of seed specs. Integers are node ids (indicator seeds);
        anything else must be a nonnegative length-``n`` vector.
    ts:
        Diffusion times in ``[0, SERIES_T_MAX]``; crossed with ``seeds``
        and ``epsilons``.
    epsilons:
        Degree-normalized rounding thresholds in (0, 1).
    num_terms:
        Explicit Taylor truncation order for every column; derived per
        ``t`` from ``tail_tol`` when omitted.
    tail_tol:
        Target Poisson tail when ``num_terms`` is omitted.

    Returns
    -------
    BatchHeatKernelResult
    """
    from repro.diffusion.hk_push import (
        _check_series_time,
        poisson_tail,
        terms_for_tail,
    )

    ts = np.asarray([
        _check_series_time(check_positive(t, "t", allow_zero=True))
        for t in np.atleast_1d(ts)
    ])
    epsilons = np.asarray(
        [check_probability(e, "epsilon") for e in np.atleast_1d(epsilons)]
    )
    degrees = graph.degrees
    if degrees.size and degrees.min() <= 0:
        raise InvalidParameterError("heat-kernel push needs positive degrees")
    seed_rows, seed_block, seed_mass = _seed_block(graph, seeds)
    num_seeds = seed_block.shape[1]
    num_ts = ts.size
    num_eps = epsilons.size

    # Output grid: seed slowest, epsilon fastest (C order).
    seed_idx = np.repeat(np.arange(num_seeds), num_ts * num_eps)
    t_col = np.tile(np.repeat(ts, num_eps), num_seeds)
    eps_col = np.tile(epsilons, num_seeds * num_ts)
    num_columns = seed_idx.size

    if num_terms is None:
        terms_by_t = {
            float(t): terms_for_tail(float(t), tail_tol)
            for t in sorted(set(ts))
        }
        terms_t = np.asarray(
            [terms_by_t[float(t)] for t in ts], dtype=np.int64
        )
    else:
        num_terms = check_int(num_terms, "num_terms", minimum=1)
        terms_t = np.full(num_ts, num_terms, dtype=np.int64)
    terms_col = np.tile(np.repeat(terms_t, num_eps), num_seeds)
    max_terms = int(terms_t.max())

    n = graph.num_nodes
    indptr = graph.indptr
    adjacency = None

    # The rounded stage recursion is t-free, so it runs over the unique
    # (seed, epsilon) columns only; every t reads the shared stages.
    u_eps = np.tile(epsilons, num_seeds)
    u_of_seed = np.repeat(np.arange(num_seeds), num_eps)

    num_unique = u_eps.size
    work_u = np.zeros(num_unique, dtype=np.int64)
    slot_of = np.empty(n, dtype=np.int64)
    # The touched mask and the accumulated output, on the rows some stage
    # kept (the only rows that can carry output).
    reached = _RowSlots(n, (
        ((num_unique,), bool), ((num_unique, num_ts), float),
    ), capacity=max(64, 4 * seed_rows.size))

    # Taylor weight schedule: W[k, ti] = e^{-t} t^k / k! while the t still
    # accumulates, 0 beyond its truncation order — per-t truncation is a
    # zero weight, not control flow.
    weight_schedule = np.zeros((max_terms + 1, num_ts))
    weight_schedule[0] = np.exp(-ts)
    for k in range(1, max_terms + 1):
        weight_schedule[k] = weight_schedule[k - 1] * ts / k
    weight_schedule[np.arange(max_terms + 1)[:, None] > terms_t[None, :]] = 0.0

    # The accumulated output is a linear functional of the stage history,
    # so rounded stages are queued as (rows, values) and all t-weights are
    # applied with one compiled tensordot per block of stages, over the
    # union of the block's rows, instead of T strided adds per stage.
    block_size = min(16, max_terms + 1)
    block = []

    def flush():
        if block:
            ks, supports, values = zip(*block)
            union = np.unique(np.concatenate(supports))
            # Multiply-adds the contraction spends per history row.
            row_cost = len(block) * num_unique * num_ts
            if (n * row_cost <= _BLAS_SMALL_PRODUCT
                    or sum(rows.size for rows in supports) >= n):
                # Small graph or wide block: one history row per node.
                # The product is +0.0 on the rows off the union, so only
                # the union's rows are added to the accumulated output.
                num_rows, used = n, union
                positions = [
                    rows if len(kept) < n else slice(None)
                    for rows, kept in zip(supports, values)
                ]
            else:
                # Padding rows keep the product out of the small-matrix
                # kernel, so each row rounds as in the one-row-per-node
                # layout of a large graph.
                positions = [np.searchsorted(union, rows) for rows in supports]
                values = [
                    compact(rows, kept) for rows, kept in zip(supports, values)
                ]
                used = slice(None, union.size)
                num_rows = max(union.size, _BLAS_SMALL_PRODUCT // row_cost + 1)
            history = np.zeros((len(block), num_rows, num_unique))
            for slot, (where, kept) in enumerate(zip(positions, values)):
                history[slot, where] = kept
            reached.state[1][reached.slot_of[union]] += np.tensordot(
                history, weight_schedule[list(ks)], axes=([0], [0])
            )[used]
            block.clear()

    def round_stage(k, vector, rows=None):
        """Threshold stage ``k`` and queue it for the Taylor weights.

        ``vector`` holds the stage on ``rows``, or on every row when
        ``None`` (a wide stage, which stays dense).  Returns the kept stage
        as ``(support, values, keep)``: the rows that keep any column, and
        the kept values and mask on those rows, or on every row for a wide
        stage.  The kept values are ``vector * keep`` — a bool mask
        multiply, bitwise identical to the scalar ``np.where`` rounding for
        the nonnegative charges diffused here.
        """
        nonlocal wide_thresholds
        if rows is None:
            if wide_thresholds is None:
                wide_thresholds = degrees[:, None] * u_eps
            keep = vector >= wide_thresholds
            support = np.flatnonzero(keep.any(axis=1))
            values = np.multiply(vector, keep, out=vector)
            kept = keep[support]
        else:
            keep = vector >= degrees[rows, None] * u_eps
            hit = keep.any(axis=1)
            support, keep = rows[hit], keep[hit]
            values = vector[hit] * keep
            kept = keep
        slots = reached.slots(support)
        reached.state[0][slots] |= kept
        block.append((k, support, values))
        if len(block) == block_size:
            flush()
        return support, values, keep

    def compact(rows, values):
        """A stage's ``values`` on its support ``rows`` only."""
        return values if len(values) == rows.size else values[rows]

    def dense(rows, values):
        """A stage's ``values`` on every row."""
        if len(values) == n:
            return values
        full = np.zeros((n, num_unique))
        full[rows] = values
        return full

    seed_mass_u = seed_mass[u_of_seed]
    wide_thresholds = None
    rows, stage, keep = round_stage(
        0, seed_block[:, u_of_seed], seed_rows
    )

    # Per-t metadata outputs, viewed as (seed, t, epsilon) so each t's
    # slice aligns with the (seed, epsilon) recursion matrix.  Each t's
    # touched mask is the one held when its order is exhausted; the
    # masks only grow and slots are appended, so it is a prefix of the
    # final slots.
    dropped = np.zeros(num_columns)
    dropped_view = dropped.reshape(num_seeds, num_ts, num_eps)
    work = np.zeros(num_columns, dtype=np.int64)
    work_view = work.reshape(num_seeds, num_ts, num_eps)
    touched_at = []

    for k in range(1, max_terms + 1):
        # The support of the current stage is exactly the rows its
        # rounding kept, so every array below is sized by that support
        # and its neighbourhood, not by n — unless the support is wide.
        if rows.size:
            row_arcs = indptr[rows + 1] - indptr[rows]
            work_u += (1 + row_arcs) @ compact(rows, keep)
            if 4 * int(row_arcs.sum()) >= graph.indices.size:
                # Wide stage: the support covers most arcs, so one sparse
                # matmul over the whole adjacency is cheapest.
                if adjacency is None:
                    adjacency = adjacency_matrix(graph)
                new_stage = adjacency @ (
                    dense(rows, stage) / degrees[:, None]
                )
                rows, stage, keep = round_stage(k, new_stage)
            else:
                # Narrow stage: gather the support's CSR slices and
                # scatter through one bincount over the distinct targets.
                targets, new_stage = _spread(
                    graph, rows, compact(rows, stage) / degrees[rows, None],
                    compact(rows, keep), slot_of,
                )
                rows, stage, keep = round_stage(k, new_stage, targets)
        else:
            rows, stage, keep = round_stage(k, compact(rows, stage), rows)
        for ti in np.flatnonzero(terms_t == k):
            # Freeze t-column metadata when its Taylor order is exhausted.
            # The walk step ``q ↦ A (q / d)`` conserves ℓ1 mass exactly
            # (in exact arithmetic), so the mass dropped by rounding up to
            # this stage is the seed mass minus the current stage mass.
            # numpy sums a single column pairwise, where the zeros off
            # the support would regroup the terms, so that case follows
            # the pairwise order of the dense column; wider stages are
            # summed row by row either way.
            if num_unique > 1 or len(stage) == n:
                stage_mass = stage.sum(axis=0)
            else:
                stage_mass = _pairwise_sum(rows, stage[:, 0], n)
            dropped_view[:, ti, :] = (
                seed_mass_u - stage_mass
            ).reshape(num_seeds, num_eps)
            work_view[:, ti, :] = work_u.reshape(num_seeds, num_eps)
            touched_at.append((ti, reached.state[0][:reached.size].copy()))
    flush()

    # (row, seed·eps, t) -> the C-ordered (row, seed, t, eps) output grid.
    order, support, (_, accumulated) = reached.sorted_state()
    approximation = (
        accumulated.reshape(-1, num_seeds, num_eps, num_ts)
        .transpose(0, 1, 3, 2).reshape(-1, num_columns)
    )
    touched = np.zeros((reached.size, num_seeds, num_ts, num_eps), dtype=bool)
    for ti, mask in touched_at:
        touched[:len(mask), :, ti, :] = mask.reshape(-1, num_seeds, num_eps)
    touched = touched[order].reshape(-1, num_columns)

    tail_by_t = [
        poisson_tail(float(t), int(m)) for t, m in zip(ts, terms_t)
    ]
    tail = np.tile(np.repeat(tail_by_t, num_eps), num_seeds)
    return BatchHeatKernelResult(
        rows=support,
        row_approximation=approximation,
        row_touched=touched,
        num_nodes=n,
        seed_indices=seed_idx,
        ts=t_col,
        epsilons=eps_col,
        num_terms=terms_col,
        dropped_mass=dropped,
        tail_bound=tail,
        work=work,
        num_stages=max_terms,
    )


def ppr_push_frontier(graph, seed_vector, *, alpha=0.15, epsilon=1e-4,
                      max_pushes=None):
    """Single-diffusion frontier push; drop-in for ``approximate_ppr_push``.

    Runs the vectorized engine with one column and returns the same
    :class:`repro.diffusion.push.PushResult` shape as the scalar
    reference, with the same ``|p_u − pr_α(s)_u| ≤ ε d_u`` guarantee.
    """
    seed = check_vector(seed_vector, graph.num_nodes, "seed_vector")
    batch = batch_ppr_push(
        graph, [seed], alphas=(alpha,), epsilons=(epsilon,),
        max_pushes=max_pushes,
    )
    return batch.column(0)
