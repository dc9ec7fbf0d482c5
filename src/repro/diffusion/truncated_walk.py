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

Every registered backend (see :mod:`repro.backends`) provides the spread
step under the same semantics (trajectory recording, support accounting,
dropped-mass bookkeeping): the default ``numpy`` step gathers the
support's CSR slices and scatters through one bincount, and ``scalar`` is
the per-node Python parity oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._validation import (
    check_int,
    check_probability,
    check_vector,
)
from repro.backends import get_backend
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
                        alpha=0.5, keep_trajectory=True, backend=None):
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
    backend:
        Registered backend name or :class:`~repro.backends.EngineBackend`
        providing the spread step; default ``"numpy"``. Every backend
        performs the same substochastic update restricted to the current
        support.

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
    ops = get_backend("numpy" if backend is None else backend)
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

    def step(charge, support):
        return ops.walk_step(graph, charge, support, alpha=alpha)

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
        charge, dropped = rounded(step(charge, support))
        result.dropped_mass += dropped
        support = record(charge)
    result.final = charge
    return result


def untruncated_lazy_walk(graph, seed_vector, num_steps, *, alpha=0.5):
    """Exact lazy walk reference (no rounding), for error measurements."""
    from repro.diffusion.lazy_walk import lazy_walk_vector

    return lazy_walk_vector(graph, seed_vector, num_steps, alpha=alpha)
