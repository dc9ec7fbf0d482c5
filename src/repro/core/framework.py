"""The public implicit-regularization API.

This is the paper's primary conceptual contribution, packaged as code: a
registry of *approximate computations*, each paired with the statistical
regularization it implicitly performs, plus one-call verification. A
downstream user who wants the paper's message as an API calls::

    from repro import core
    for dynamics in core.canonical_dynamics():
        report = dynamics.verify(graph)
        print(dynamics.describe(), report.diffusion_vs_closed_form)

Each registered dynamics knows (1) how to run the approximation on a
graph, (2) the regularized objective it exactly optimizes, and (3) how to
verify the equivalence numerically.

Since the unified-registry redesign this module is a façade over
:mod:`repro.dynamics`: :func:`canonical_dynamics` returns the *same*
:class:`~repro.dynamics.DynamicsKind` objects the NCP runner and the
local-cluster drivers dispatch on, and :func:`get_dynamics` accepts every
registered spelling — the historical framework keys (``"heat_kernel"``,
``"pagerank"``, ``"lazy_walk"``) and the runner's short names (``"hk"``,
``"ppr"``, ``"walk"``) resolve to identical objects.
"""

from __future__ import annotations

from repro.dynamics import (
    ApproximateComputation,
    DynamicsKind,
    UnknownDynamicsError,
    canonical_dynamics,
    get_dynamics,
    registered_dynamics,
)

__all__ = [
    "ApproximateComputation",
    "DynamicsKind",
    "UnknownDynamicsError",
    "canonical_dynamics",
    "get_dynamics",
    "registered_dynamics",
]
