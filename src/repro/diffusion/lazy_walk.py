"""Lazy random-walk diffusion: powers of ``W_α = α I + (1 − α) M``.

The third canonical dynamics of Section 3.1: "the charge either stays at the
current node or moves to a neighbor", with holding probability ``α``. The
number of steps ``k`` is the aggressiveness parameter: ``k → ∞`` converges to
the stationary distribution (for connected non-bipartite dynamics — laziness
removes periodicity), small ``k`` keeps charge near the seed.
"""

from __future__ import annotations

import numpy as np

from repro._validation import check_int, check_probability, check_vector
from repro.graph.matrices import lazy_walk_matrix


def lazy_walk_vector(graph, seed_vector, num_steps, *, alpha=0.5):
    """Apply ``W_α^k`` to the seed: ``k`` steps of the lazy random walk."""
    num_steps = check_int(num_steps, "num_steps", minimum=0)
    alpha = check_probability(alpha, "alpha")
    seed = check_vector(seed_vector, graph.num_nodes, "seed_vector")
    walk = lazy_walk_matrix(graph, alpha)
    charge = seed.copy()
    for _ in range(num_steps):
        charge = walk @ charge
    return charge


def lazy_walk_matrix_power_dense(graph, num_steps, *, alpha=0.5):
    """Dense ``W_α^k`` (test oracle / SDP experiments; O(k n^3) worst case)."""
    num_steps = check_int(num_steps, "num_steps", minimum=0)
    walk = lazy_walk_matrix(graph, alpha).toarray()
    return np.linalg.matrix_power(walk, num_steps)
