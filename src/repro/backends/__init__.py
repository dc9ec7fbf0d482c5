"""The EngineBackend registry: pluggable kernel backends.

PRs 1-2 grew a scalar-reference / vectorized-engine pair for every hot
loop; this package selects between them through one first-class layer,
a :class:`~repro._registry.Registry` like the dynamics and refiner
registries:

* **Interface** — :class:`EngineBackend`: a frozen record of the CSR
  scatter-add inner loops (PPR push, heat-kernel stage recursion,
  lazy-walk step, sweep prefix scan) plus grid drivers, under a
  canonical key and alias table.
* **Registry** — canonical names ``numpy`` / ``scalar``.  ``numpy`` is
  the vectorized reference (and the parity oracle every other backend is
  tested against); ``scalar`` is the node-at-a-time Python loop family.
* **Errors** — :class:`UnknownBackendError`, both
  :class:`~repro.exceptions.InvalidParameterError` (hence ``ValueError``)
  and ``KeyError``, with a did-you-mean suggestion.

The pre-registry flag values (``"batched"``, ``"vectorized"``,
``"oracle"``, ...) stay registered as aliases, so older run manifests'
``backend`` values still resolve.

Registering a backend is enough to make the test suite parity-check it
against ``numpy`` (see ``tests/test_backends.py`` for a worked
third-party example).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._registry import Registry
from repro.exceptions import InvalidParameterError

__all__ = [
    "EngineBackend",
    "UnknownBackendError",
    "get_backend",
    "register_backend",
    "registered_backends",
    "resolve_backend_name",
    "unregister_backend",
]


class UnknownBackendError(InvalidParameterError, KeyError):
    """Raised for a backend name that is not in the registry.

    Inherits both :class:`~repro.exceptions.InvalidParameterError` (hence
    ``ValueError``) and ``KeyError``, matching the other registry errors
    (:class:`~repro.dynamics.UnknownDynamicsError`,
    :class:`~repro.refine.UnknownRefinerError`), so callers validating
    either way keep working.
    """

    __str__ = Exception.__str__


@dataclass(frozen=True)
class EngineBackend:
    """One kernel backend: the CSR inner loops behind a canonical name.

    Attributes
    ----------
    key:
        Canonical registry name (``"numpy"``, ``"scalar"``).
    description:
        One-line summary shown in ``--help`` and the architecture docs.
    aliases:
        Accepted alternative names.
    ppr_grid:
        ``(graph, seed_nodes, *, alphas, epsilons)`` -> iterator of PPR
        columns in (seed, alpha, epsilon) order, epsilon fastest.
    hk_grid:
        ``(graph, seed_nodes, *, ts, epsilons)`` -> iterator of
        heat-kernel columns in (seed, t, epsilon) order.
    ppr_push:
        ``(graph, seed_vector, *, alpha, epsilon)`` ->
        :class:`~repro.diffusion.push.PushResult` (single column).
    hk_push:
        ``(graph, seed_vector, t, *, epsilon)`` ->
        :class:`~repro.diffusion.hk_push.HeatKernelPushResult`.
    walk_step:
        ``(graph, charge, support, *, alpha)`` -> next charge vector of
        the truncated lazy walk (one spread step, no rounding).
    prefix_scan:
        ``(graph, order, max_size, max_volume, min_size)`` ->
        ``(profile, (phi, position, volume))`` sweep scan.
    """

    key: str
    description: str
    aliases: tuple = ()
    ppr_grid: object = field(default=None, repr=False)
    hk_grid: object = field(default=None, repr=False)
    ppr_push: object = field(default=None, repr=False)
    hk_push: object = field(default=None, repr=False)
    walk_step: object = field(default=None, repr=False)
    prefix_scan: object = field(default=None, repr=False)


BACKENDS = Registry("backend", EngineBackend, UnknownBackendError)
register_backend = BACKENDS.register
unregister_backend = BACKENDS.unregister
resolve_backend_name = BACKENDS.resolve
get_backend = BACKENDS.get
registered_backends = BACKENDS.registered


def _register_builtin_backends():
    from repro.backends import _numpy, _scalar

    register_backend(EngineBackend(
        key="numpy",
        description=(
            "vectorized NumPy reference kernels (frontier-batched pushes, "
            "bincount scatters); the parity oracle for every other backend"
        ),
        aliases=("np", "batched", "vectorized", "reference"),
        ppr_grid=_numpy.ppr_grid,
        hk_grid=_numpy.hk_grid,
        ppr_push=_numpy.ppr_push,
        hk_push=_numpy.hk_push,
        walk_step=_numpy.walk_step,
        prefix_scan=_numpy.prefix_scan,
    ))
    register_backend(EngineBackend(
        key="scalar",
        description=(
            "node-at-a-time Python loops: slow, transparent, and the "
            "historical oracle the vectorized engines grew out of"
        ),
        aliases=("python", "loop", "oracle"),
        ppr_grid=_scalar.ppr_grid,
        hk_grid=_scalar.hk_grid,
        ppr_push=_scalar.ppr_push,
        hk_push=_scalar.hk_push,
        walk_step=_scalar.walk_step,
        prefix_scan=_scalar.prefix_scan,
    ))


_register_builtin_backends()
