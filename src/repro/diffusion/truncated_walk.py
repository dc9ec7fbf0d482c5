"""Truncated random walks (the Spielman–Teng "Nibble" core).

Section 3.3: "[39] performs truncated random walks ... at each step of the
algorithm various 'small' quantities are truncated to zero (or simply
maintained at zero), thereby minimizing the number of nodes that need to be
touched". This module implements that dynamics: lazy-walk steps interleaved
with a degree-normalized rounding step

    [q]_ε (u) = q(u)  if q(u) >= ε d(u),   else 0.

The rounding is exactly the implicit regularizer the paper discusses — it
biases the iterate toward sparse, low-volume support while keeping each step
O(support volume).

The spread step gathers the support's CSR slices and scatters through one
bincount; the per-node Python loop it replaced stays beside it as the
private parity oracle the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._validation import (
    check_int,
    check_probability,
    check_vector,
)
from repro.diffusion._csr import gather_csr_arcs
from repro.exceptions import InvalidParameterError


@dataclass
class TruncatedWalkResult:
    """Trajectory of a truncated lazy random walk.

    Attributes
    ----------
    final:
        Charge vector after the last step.
    trajectory:
        List of charge vectors, one per step (after rounding), beginning
        with the rounded seed.
    support_sizes:
        Number of nonzero entries per trajectory step.
    support_volumes:
        Volume (sum of degrees) of the support per step.
    dropped_mass:
        Total probability mass removed by rounding across all steps.
    """

    final: np.ndarray
    trajectory: list = field(default_factory=list)
    support_sizes: list = field(default_factory=list)
    support_volumes: list = field(default_factory=list)
    dropped_mass: float = 0.0


def truncated_lazy_walk(graph, seed_vector, num_steps, *, epsilon,
                        alpha=0.5, keep_trajectory=True):
    """Run ``num_steps`` of the truncated lazy random walk.

    Parameters
    ----------
    graph:
        Graph with positive degrees.
    seed_vector:
        Nonnegative initial charge (typically an indicator distribution).
    num_steps:
        Number of walk steps.
    epsilon:
        Degree-normalized truncation threshold in (0, 1).
    alpha:
        Holding probability of the lazy walk.
    keep_trajectory:
        Record every intermediate vector (the sweep-cut driver needs them).

    Returns
    -------
    TruncatedWalkResult

    Notes
    -----
    The update touches only the current support and its neighborhood, so the
    cost per step is proportional to the support volume, not to ``n``; the
    Spielman–Teng locality claim, verified in tests by work counting.
    """
    num_steps = check_int(num_steps, "num_steps", minimum=0)
    epsilon = check_probability(epsilon, "epsilon")
    alpha = check_probability(alpha, "alpha")
    seed = check_vector(seed_vector, graph.num_nodes, "seed_vector")
    if np.any(seed < 0):
        raise InvalidParameterError("truncated walk needs a nonnegative seed")
    degrees = graph.degrees
    if np.any(degrees <= 0):
        raise InvalidParameterError("truncated walk requires positive degrees")

    def rounded(vector):
        keep = vector >= epsilon * degrees
        dropped = float(vector[~keep].sum())
        out = np.where(keep, vector, 0.0)
        return out, dropped

    charge, dropped_total = rounded(seed)
    result = TruncatedWalkResult(final=charge)
    result.dropped_mass = dropped_total

    def record(vector):
        support = np.flatnonzero(vector)
        if keep_trajectory:
            result.trajectory.append(vector.copy())
        result.support_sizes.append(int(support.size))
        result.support_volumes.append(float(degrees[support].sum()))
        return support

    support = record(charge)
    for _ in range(num_steps):
        charge, dropped = rounded(
            _walk_step(graph, charge, support, alpha=alpha)
        )
        result.dropped_mass += dropped
        support = record(charge)
    result.final = charge
    return result


def _walk_step(graph, charge, support, *, alpha):
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


def _walk_step_scalar(graph, charge, support, *, alpha):
    """Parity oracle of :func:`_walk_step`: one support node at a time."""
    degrees = graph.degrees
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    new_charge = alpha * charge
    for u in support:
        flow = (1.0 - alpha) * charge[u] / degrees[u]
        start, stop = indptr[u], indptr[u + 1]
        for k in range(start, stop):
            new_charge[indices[k]] += flow * weights[k]
    return new_charge


def untruncated_lazy_walk(graph, seed_vector, num_steps, *, alpha=0.5):
    """Exact lazy walk reference (no rounding), for error measurements."""
    from repro.diffusion.lazy_walk import lazy_walk_vector

    return lazy_walk_vector(graph, seed_vector, num_steps, alpha=alpha)
