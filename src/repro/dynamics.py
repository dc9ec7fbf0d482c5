"""The unified dynamics registry: one typed API over PPR / heat kernel / walk.

The paper's central claim is that the three canonical diffusion dynamics —
PageRank, the heat kernel, and the truncated lazy random walk — are
instances of *one* implicitly-regularized computation.  This module makes
that claim structural: every dynamics is described once, by a frozen *spec*
dataclass plus a :class:`DynamicsKind` registry entry, and every consumer
(the NCP ensemble generators, the sharded runner, the local-cluster
drivers, the equivalence-verification harness, the benchmarks) dispatches
through the registry instead of switching on strings.

Three layers:

* **Specs** — :class:`PPR`, :class:`HeatKernel`, :class:`LazyWalk`: frozen
  dataclasses holding the aggressiveness axis of one dynamics
  (``alpha`` / ``t`` / ``steps`` + ``walk_alpha``).  Each spec knows its
  grid axes, its default truncation thresholds, how to produce its
  diffusion columns (``support_columns``, each column as the
  ``(rows, values)`` pair of its support, which the NCP sweep reads;
  ``iter_columns`` densifies the same columns), and how to drive a local
  cluster from a seed.  A spec with a single-point axis doubles as a
  point parameter for the seed → cluster drivers.
* **Grids** — :class:`DiffusionGrid`: a spec × epsilons × seed-sampling
  plan, the one workload description every NCP entry point takes.
* **The registry** — :class:`DynamicsKind` entries pair the NCP-side
  dispatch with the implicit-regularization framework
  (:mod:`repro.core.framework`) under canonical names plus an alias
  table, so ``get_dynamics("ppr")``, ``get_dynamics("pagerank")`` and
  ``get_dynamics(PPR())`` all return the *same* registry object the
  runner dispatches on.

New dynamics plug in by registering a spec type and a
:class:`DynamicsKind` — no changes to the runner, the profile layer, or
the benchmarks are needed (see ``tests/test_dynamics_registry.py`` for a
worked example).

The registry is a :class:`~repro._registry.Registry`, the one
implementation shared with :class:`~repro.refine.RefinerKind` (refiners)
and :class:`~repro.execution.ExecutorKind` (ensemble execution
strategies).
A :class:`DiffusionGrid` workload says *what* to diffuse; the executor
registry decides *how* its chunks run, and the candidate bytes never
depend on that choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from repro._registry import Registry
from repro._validation import (
    check_int,
    check_numpy_backend,
    check_positive,
    check_probability,
)
from repro.diffusion.engine import batch_hk_push, batch_ppr_push
from repro.diffusion.hk_push import heat_kernel_push
from repro.diffusion.push import approximate_ppr_push
from repro.diffusion.seeds import degree_weighted_indicator_seed
from repro.diffusion.truncated_walk import truncated_lazy_walk
from repro.exceptions import InvalidParameterError
from repro.regularization.equivalence import (
    verify_heat_kernel,
    verify_lazy_walk,
    verify_pagerank,
)

__all__ = [
    "ApproximateComputation",
    "DiffusionGrid",
    "DynamicsKind",
    "HeatKernel",
    "LazyWalk",
    "PPR",
    "UnknownDynamicsError",
    "as_diffusion_grid",
    "canonical_dynamics",
    "get_dynamics",
    "register_dynamics",
    "registered_dynamics",
    "resolve_dynamics_name",
    "unregister_dynamics",
]

# Which seeds share a ``batch_ppr_push`` call: ``_BATCH_ENTRY_BUDGET //
# (n * grid_size)`` of them.  The engine's state is sized by the output, so
# this no longer caps memory; it must stay because it fixes the bytes.  A
# PPR call switches to its wide sweep when the union frontier of all its
# columns covers a quarter of the arcs, and the wide and narrow sweeps
# round a column's residual differently, so regrouping the seeds moves
# ulps in the PPR columns (and so the chunk cache).  The heat kernel has
# no such dependence, so it runs a whole chunk's seeds in one call.
_BATCH_ENTRY_BUDGET = 2_000_000


def _seed_vector(graph, seed_node):
    """Degree-weighted indicator distribution for one seed node."""
    return degree_weighted_indicator_seed(graph, [int(seed_node)])


def _batched_columns(seed_nodes, seeds_per_call, run_batch):
    """Yield every column of ``run_batch`` over seed groups of a fixed size.

    ``run_batch(nodes)`` runs one batched engine call on seed node ids;
    columns come out in its (seed, axis, epsilon) order, seed slowest,
    each as the ``(rows, values)`` pair of its nonzero entries.
    """
    seed_nodes = [int(s) for s in seed_nodes]
    seeds_per_call = max(seeds_per_call, 1)
    for start in range(0, len(seed_nodes), seeds_per_call):
        batch = run_batch(seed_nodes[start:start + seeds_per_call])
        for b in range(batch.num_columns):
            yield batch.sparse_column(b)


def _dense(n, rows, values):
    """The length-``n`` vector holding ``values`` at ``rows``, else 0.0."""
    column = np.zeros(n)
    column[rows] = values
    return column


class UnknownDynamicsError(InvalidParameterError, KeyError):
    """Raised for a dynamics name or spec that is not in the registry.

    Inherits both :class:`~repro.exceptions.InvalidParameterError` (hence
    ``ValueError``) and ``KeyError``: historically the NCP runner raised
    the former and ``core.framework.get_dynamics`` the latter, and callers
    of either style keep working.
    """

    __str__ = Exception.__str__


def _axis(value, name, check):
    """Normalize a scalar-or-sequence axis value to a validated tuple."""
    if np.ndim(value) == 0:
        value = (value,)
    values = tuple(check(v, name) for v in value)
    if not values:
        raise InvalidParameterError(f"{name} axis must be nonempty")
    return values


class _SpecBase:
    """Shared behavior of the dynamics spec dataclasses.

    Subclasses define the class attributes ``name`` (canonical registry
    key), ``candidate_label`` (``ClusterCandidate.method`` value),
    ``local_method`` (``LocalClusterResult.method`` value) and
    ``default_epsilons``, plus ``grid_params`` / ``from_grid_params`` /
    ``support_columns`` / ``local_sweep_vectors``.
    """

    def iter_columns(self, graph, seed_nodes, *, epsilons, backend=None):
        """Iterate the dense length-``n`` vector of every grid column.

        The columns of :meth:`support_columns`, in its order, each
        scattered into a fresh zero vector.  ``backend`` may only be
        ``None`` or ``"numpy"``.
        """
        check_numpy_backend(backend)
        columns = self.support_columns(graph, seed_nodes, epsilons=epsilons)
        return (_dense(graph.num_nodes, rows, values)
                for rows, values in columns)

    def grid_axes(self):
        """Ordered mapping of swept axis name -> tuple of values."""
        return dict(self.grid_params())

    def grid_size(self, epsilons):
        """Number of diffusion columns per seed node."""
        size = len(tuple(epsilons))
        for values in self.grid_axes().values():
            if np.ndim(values) > 0:
                size *= len(values)
        return size

    def _point(self, name):
        """The single value of axis ``name`` (local drivers need a point)."""
        values = getattr(self, name)
        if np.ndim(values) == 0:
            return values
        if len(values) != 1:
            raise InvalidParameterError(
                f"{type(self).__name__}.{name} must be a single point for "
                f"local clustering; got the grid {values!r}"
            )
        return values[0]

    def local_cluster(self, graph, seed_nodes, **kwargs):
        """Run the generic seed -> cluster driver with this spec."""
        from repro.partition.local import local_cluster

        return local_cluster(graph, seed_nodes, self, **kwargs)


@dataclass(frozen=True)
class PPR(_SpecBase):
    """Personalized PageRank / ACL push dynamics (the "LocalSpectral" side).

    Parameters
    ----------
    alpha:
        Teleport probability axis — a scalar or a tuple.  Larger alpha
        keeps mass closer to the seed (stronger implicit regularization).
    """

    alpha: tuple = (0.01, 0.05, 0.15)

    name: ClassVar[str] = "ppr"
    candidate_label: ClassVar[str] = "spectral"
    local_method: ClassVar[str] = "acl"
    default_epsilons: ClassVar[tuple] = (1e-4, 1e-5)

    def __post_init__(self):
        object.__setattr__(
            self, "alpha", _axis(self.alpha, "alpha", check_probability)
        )

    def grid_params(self):
        return (("alphas", self.alpha),)

    @classmethod
    def from_grid_params(cls, params):
        return cls(alpha=params["alphas"])

    def support_columns(self, graph, seed_nodes, *, epsilons):
        """Iterate one diffusion column per (seed, alpha, epsilon) point.

        Columns enumerate seed (slowest) x alpha x epsilon (fastest),
        batched per seed group through
        :func:`~repro.diffusion.engine.batch_ppr_push` (the groups are
        sized by ``_BATCH_ENTRY_BUDGET``); each is the ``(rows, values)``
        pair of its nonzero entries.
        """
        epsilons = tuple(epsilons)
        seeds_per_call = _BATCH_ENTRY_BUDGET // max(
            graph.num_nodes * self.grid_size(epsilons), 1
        )
        return _batched_columns(
            seed_nodes, seeds_per_call,
            lambda nodes: batch_ppr_push(
                graph, nodes, alphas=self.alpha, epsilons=epsilons
            ),
        )

    def local_sweep_vectors(self, graph, seed_vector, *, epsilon):
        """Yield (scores, edge-work) pairs to sweep for a local cluster.

        The single-column FIFO push is the historical ACL local driver.
        """
        push = approximate_ppr_push(
            graph, seed_vector, alpha=self._point("alpha"), epsilon=epsilon
        )
        yield push.approximation, push.work


@dataclass(frozen=True)
class HeatKernel(_SpecBase):
    """Heat-kernel push dynamics [15].

    Parameters
    ----------
    t:
        Diffusion-time axis — a scalar or a tuple.  Larger t runs the
        dynamics further (weaker implicit regularization).
    """

    t: tuple = (3.0, 10.0, 30.0)

    name: ClassVar[str] = "hk"
    candidate_label: ClassVar[str] = "hk"
    local_method: ClassVar[str] = "hk"
    default_epsilons: ClassVar[tuple] = (1e-3, 1e-4)

    def __post_init__(self):
        object.__setattr__(self, "t", _axis(self.t, "t", check_positive))

    def grid_params(self):
        return (("ts", self.t),)

    @classmethod
    def from_grid_params(cls, params):
        return cls(t=params["ts"])

    def support_columns(self, graph, seed_nodes, *, epsilons):
        """Iterate one diffusion column per (seed, t, epsilon) grid point.

        All of ``seed_nodes`` run in one
        :func:`~repro.diffusion.engine.batch_hk_push` call; each column is
        the ``(rows, values)`` pair of its nonzero entries.
        """
        epsilons = tuple(epsilons)
        seed_nodes = list(seed_nodes)
        return _batched_columns(
            seed_nodes, len(seed_nodes),
            lambda nodes: batch_hk_push(
                graph, nodes, ts=self.t, epsilons=epsilons
            ),
        )

    def local_sweep_vectors(self, graph, seed_vector, *, epsilon):
        """Yield the (scores, edge-work) pair for the local hk driver.

        The one-column series recursion is the historical hk local
        driver.
        """
        result = heat_kernel_push(
            graph, seed_vector, self._point("t"), epsilon=epsilon
        )
        yield result.approximation, result.work


@dataclass(frozen=True)
class LazyWalk(_SpecBase):
    """Spielman–Teng truncated lazy random walk dynamics [39].

    Parameters
    ----------
    steps:
        Step-count axis — a scalar or a tuple.  Walk trajectories are
        prefix-closed, so the NCP grid runs one walk to ``max(steps)``
        per (seed, epsilon) and sweeps the charge at every requested
        step count.
    walk_alpha:
        Holding probability of the lazy walk (a fixed parameter, not a
        swept axis).
    """

    steps: tuple = (4, 16, 64)
    walk_alpha: float = 0.5

    name: ClassVar[str] = "walk"
    candidate_label: ClassVar[str] = "walk"
    local_method: ClassVar[str] = "nibble"
    default_epsilons: ClassVar[tuple] = (1e-3, 1e-4)

    def __post_init__(self):
        object.__setattr__(
            self,
            "steps",
            _axis(
                self.steps,
                "steps",
                lambda v, name: check_int(v, name, minimum=0),
            ),
        )
        object.__setattr__(
            self, "walk_alpha", check_probability(self.walk_alpha, "walk_alpha")
        )

    def grid_params(self):
        return (("steps", self.steps), ("walk_alpha", self.walk_alpha))

    def grid_axes(self):
        return {"steps": self.steps}

    @classmethod
    def from_grid_params(cls, params):
        return cls(steps=params["steps"], walk_alpha=params["walk_alpha"])

    def grid_size(self, epsilons):
        return len(self.steps) * len(tuple(epsilons))

    def support_columns(self, graph, seed_nodes, *, epsilons):
        """Iterate one charge column per (seed, epsilon, step) grid point.

        The walk is run once to the largest requested step count per
        (seed, epsilon); the prefix trajectory supplies every smaller
        step count for free, in sorted-unique order.  Each column is the
        ``(rows, values)`` pair over its nonzero charge.
        """
        epsilons = tuple(epsilons)
        wanted = sorted(set(self.steps))
        horizon = wanted[-1]
        for seed_node in seed_nodes:
            vector = _seed_vector(graph, seed_node)
            for epsilon in epsilons:
                walk = truncated_lazy_walk(
                    graph, vector, horizon, epsilon=epsilon,
                    alpha=self.walk_alpha, keep_trajectory=True,
                )
                for k in wanted:
                    charge = walk.trajectory[k]
                    rows = np.flatnonzero(charge)
                    yield rows, charge[rows]

    def local_sweep_vectors(self, graph, seed_vector, *, epsilon):
        """Sweep the charge after every step, as Nibble does."""
        num_steps = check_int(self._point("steps"), "steps", minimum=1)
        walk = truncated_lazy_walk(
            graph, seed_vector, num_steps, epsilon=epsilon,
            alpha=self.walk_alpha, keep_trajectory=True,
        )
        work = int(sum(walk.support_volumes))
        for charge in walk.trajectory[1:]:
            yield charge, work


@dataclass(frozen=True)
class ApproximateComputation:
    """An approximation algorithm paired with its implicit regularizer.

    Attributes
    ----------
    name:
        Algorithm display name.
    aggressiveness_parameter:
        The knob controlling how far the dynamics runs (Section 3.1).
    regularizer:
        The G(X) of Problem (5) that the algorithm implicitly applies.
    default_parameters:
        Parameters used by :meth:`verify` when none are given.
    verifier:
        Callable ``verifier(graph, **params) -> EquivalenceReport``.
    """

    name: str
    aggressiveness_parameter: str
    regularizer: str
    default_parameters: dict
    verifier: Callable

    def verify(self, graph, **params):
        """Numerically verify the implicit-regularization identity.

        Runs the dynamics and the regularized SDP on ``graph`` and returns
        the :class:`~repro.regularization.equivalence.EquivalenceReport`.
        """
        merged = dict(self.default_parameters)
        merged.update(params)
        return self.verifier(graph, **merged)

    def describe(self):
        """One-line description of the algorithm ↔ regularizer pairing."""
        return (
            f"{self.name} (aggressiveness: {self.aggressiveness_parameter}) "
            f"exactly solves Problem (5) with G = {self.regularizer}"
        )


@dataclass(frozen=True)
class DynamicsKind(ApproximateComputation):
    """One registered dynamics: verification identity + NCP dispatch.

    Extends :class:`ApproximateComputation` (the Section 3.1 entry that
    ``core.framework`` has always exposed) with the operational side —
    the spec type the runner and the local drivers dispatch on.

    Attributes
    ----------
    key:
        Canonical registry name (``"ppr"``, ``"hk"``, ``"walk"``).
    aliases:
        Accepted alternative spellings (``"pagerank"``, ``"heat_kernel"``,
        ``"lazy_walk"``, ``"acl"``, ``"nibble"``, ...).
    spec_type:
        The frozen spec dataclass (:class:`PPR` & co).
    local_spec_factory:
        ``factory(graph) -> spec`` producing the default single-point spec
        for the seed -> cluster drivers (the walk's default step count
        depends on the graph size).
    """

    key: str = ""
    aliases: tuple = ()
    spec_type: type = None
    local_spec_factory: Callable = None

    def default_spec(self):
        """The spec with this dynamics' default NCP grid axes."""
        return self.spec_type()

    def default_grid(self, **overrides):
        """A :class:`DiffusionGrid` over the default spec."""
        return DiffusionGrid(self.default_spec(), **overrides)

    def local_spec(self, graph=None):
        """The default single-point spec for local clustering."""
        return self.local_spec_factory(graph)


@dataclass(frozen=True)
class DiffusionGrid:
    """A full NCP diffusion workload: dynamics x epsilons x seed sampling.

    Attributes
    ----------
    dynamics:
        A registered spec instance (accepts a canonical name / alias or a
        :class:`DynamicsKind`, normalized to the default spec).
    epsilons:
        Truncation-threshold axis; ``None`` resolves to the spec's
        ``default_epsilons``.
    num_seeds:
        Seed nodes sampled by degree (the stationary measure, as in [27]).
    seed:
        RNG seed (or generator) for seed-node sampling.
    max_cluster_size:
        Sweep-prefix size cap; ``None`` resolves to ``n // 2`` at run time.
    """

    dynamics: object
    epsilons: tuple = None
    num_seeds: int = 40
    seed: object = None
    max_cluster_size: int = None

    def __post_init__(self):
        spec = self.dynamics
        if isinstance(spec, (str, DynamicsKind)) or isinstance(spec, type):
            spec = get_dynamics(spec).default_spec()
        else:
            get_dynamics(spec)  # raises UnknownDynamicsError if unregistered
        object.__setattr__(self, "dynamics", spec)
        if self.epsilons is not None:
            object.__setattr__(
                self,
                "epsilons",
                _axis(self.epsilons, "epsilons", check_probability),
            )
        check_int(self.num_seeds, "num_seeds", minimum=1)
        if self.max_cluster_size is not None:
            check_int(self.max_cluster_size, "max_cluster_size", minimum=1)

    @property
    def backend(self):
        """Always ``"numpy"``, the one kernel family (read-only).

        Not a field: no grid can choose kernels.  It stays readable for
        the benchmark's layer re-drive, which passes it back as
        ``backend=``.
        """
        return "numpy"

    @property
    def key(self):
        """Canonical name of the grid's dynamics."""
        return get_dynamics(self.dynamics).key

    def resolved_epsilons(self):
        return (
            self.epsilons
            if self.epsilons is not None
            else tuple(self.dynamics.default_epsilons)
        )

    def resolve_max_cluster_size(self, graph):
        return (
            self.max_cluster_size
            if self.max_cluster_size is not None
            else graph.num_nodes // 2
        )

    def grid_params(self):
        """Hashable (name, value) pairs pinning the whole non-seed grid."""
        return self.dynamics.grid_params() + (
            ("epsilons", self.resolved_epsilons()),
        )


def as_diffusion_grid(grid):
    """Coerce a grid-like value (grid, spec, kind, or name) to a grid."""
    if isinstance(grid, DiffusionGrid):
        return grid
    return DiffusionGrid(grid)


# --------------------------------------------------------------------------
# The registry.

DYNAMICS = Registry(
    "dynamics", DynamicsKind, UnknownDynamicsError, spellings=("name",)
)
register_dynamics = DYNAMICS.register
unregister_dynamics = DYNAMICS.unregister
resolve_dynamics_name = DYNAMICS.resolve
get_dynamics = DYNAMICS.get
registered_dynamics = DYNAMICS.registered


def canonical_dynamics():
    """The paper's three canonical dynamics (Section 3.1), in paper order."""
    return [get_dynamics(key) for key in ("hk", "ppr", "walk")]


def _default_nibble_steps(graph):
    """Nibble's default step count: max(10, ceil(log2(n+1)^2))."""
    if graph is None:
        return 10
    return max(10, int(np.ceil(np.log2(graph.num_nodes + 1) ** 2)))


HEAT_KERNEL = register_dynamics(DynamicsKind(
    name="Heat Kernel",
    aggressiveness_parameter="time t",
    regularizer="generalized (von Neumann) entropy Tr(X log X)",
    default_parameters={"t": 2.0},
    verifier=verify_heat_kernel,
    key="hk",
    aliases=("heat_kernel", "heatkernel", "heat-kernel"),
    spec_type=HeatKernel,
    local_spec_factory=lambda graph=None: HeatKernel(t=5.0),
))

PAGERANK = register_dynamics(DynamicsKind(
    name="PageRank",
    aggressiveness_parameter="teleport probability gamma",
    regularizer="log-determinant -log det(X)",
    default_parameters={"gamma": 0.2},
    verifier=verify_pagerank,
    key="ppr",
    aliases=("pagerank", "acl", "personalized_pagerank", "spectral"),
    spec_type=PPR,
    local_spec_factory=lambda graph=None: PPR(alpha=0.1),
))

LAZY_WALK = register_dynamics(DynamicsKind(
    name="Lazy Random Walk",
    aggressiveness_parameter="number of steps k",
    regularizer="matrix p-norm (1/p) Tr(X^p), p = 1 + 1/k",
    default_parameters={"alpha": 0.6, "num_steps": 5},
    verifier=verify_lazy_walk,
    key="walk",
    aliases=("lazy_walk", "nibble", "truncated_walk", "lazywalk"),
    spec_type=LazyWalk,
    local_spec_factory=lambda graph=None: LazyWalk(
        steps=_default_nibble_steps(graph), walk_alpha=0.5
    ),
))
