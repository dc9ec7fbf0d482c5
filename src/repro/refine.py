"""The unified refiner registry: composable flow/spectral cluster improvement.

The paper's central empirical comparison (Figure 1) is between raw
diffusion clusters and their flow-improved counterparts — the spectral
cloud against the "Metis+MQI" cloud.  This module makes the *improvement*
side first-class, mirroring :mod:`repro.dynamics`: every refiner is a
frozen *spec* dataclass plus a :class:`RefinerKind` registry entry, and
every consumer (the flow NCP ensemble, the sharded runner, the local
cluster driver, the CLI ``--refine`` strings, benchmark E14) dispatches
through the registry instead of hard-wiring ``mqi(...)`` calls.

Three layers:

* **Specs** — :class:`MQI`, :class:`FlowImprove`, :class:`MOV`: frozen
  dataclasses holding one refiner's knobs (``max_rounds`` /
  ``dilation_radius`` / ``gamma_fraction``).  Each spec maps a candidate
  cluster to an improved-or-unchanged cluster via :meth:`refine`,
  recording per-stage provenance (:class:`RefinementStep`: pre/post
  conductance, rounds, convergence, whether the set changed).  A refiner
  **never increases conductance** and always returns a nonempty proper
  subset — the invariants the hypothesis suite pins for every registered
  refiner.
* **Chains** — :func:`apply_refiners` threads a cluster through an
  ordered refiner chain and returns a :class:`RefinementTrace`;
  :func:`refine_candidates` lifts that over whole NCP candidate
  ensembles, one chain stage at a time: each stage's ``refine_many``
  sees every candidate, which lets :class:`MQI` and
  :class:`FlowImprove` run all their max-flow rounds in waves.
* **Pipelines** — :class:`Pipeline` pairs a diffusion workload (any
  :class:`~repro.dynamics.DiffusionGrid`-compatible value) with a refiner
  chain.  Every NCP and local-clustering entry point accepts one:
  ``run_ncp_ensemble(graph, Pipeline(PPR(), refiners=("mqi",)))``,
  ``cluster_ensemble_ncp(graph, Pipeline("hk", refiners=(FlowImprove(
  dilation_radius=2),)))``, ``local_cluster(graph, seeds,
  Pipeline(PPR(alpha=0.1), refiners=("mqi",)))``.

New refiners plug in by registering a spec type and a
:class:`RefinerKind` — the flow ensemble, the runner, the CLI parser, and
benchmark E14 pick them up with zero changes (see
``tests/test_refine_registry.py`` for a worked example).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro._registry import Registry
from repro._validation import check_int, check_probability
from repro.dynamics import as_diffusion_grid
from repro.exceptions import (
    ConvergenceError,
    GraphError,
    InvalidParameterError,
    PartitionError,
)
from repro.partition.flow_improve import _flow_improve_many
from repro.partition.metrics import conductance
from repro.partition.mov import mov_cluster
from repro.partition.mqi import _checked_side, _mqi_waves

__all__ = [
    "FlowImprove",
    "MOV",
    "MQI",
    "Pipeline",
    "RefinementStep",
    "RefinementTrace",
    "RefinerKind",
    "UnknownRefinerError",
    "apply_refiners",
    "as_pipeline",
    "as_refiner",
    "as_refiner_chain",
    "get_refiner",
    "refine_candidates",
    "register_refiner",
    "registered_refiners",
    "resolve_refiner_name",
    "unregister_refiner",
]

# A refined set is accepted only when it beats the input by more than this
# slack — the same strict-improvement predicate the pre-registry
# "Metis+MQI" loop used, so refined and raw ensembles stay comparable.
_IMPROVEMENT_EPS = 1e-15


class UnknownRefinerError(InvalidParameterError, KeyError):
    """Raised for a refiner name or spec that is not in the registry.

    Mirrors :class:`~repro.dynamics.UnknownDynamicsError`: inherits both
    :class:`~repro.exceptions.InvalidParameterError` (hence ``ValueError``)
    and ``KeyError`` so callers of either lookup style keep working.
    """

    __str__ = Exception.__str__


@dataclass(frozen=True)
class RefinementStep:
    """Provenance of one refiner application in a chain.

    Attributes
    ----------
    refiner:
        The canonical spec token, e.g. ``"mqi(max_rounds=100)"``.
    pre_conductance:
        φ of the set entering this stage.
    post_conductance:
        φ of the set leaving this stage (== ``pre_conductance`` when the
        stage left the set unchanged).
    rounds:
        Improving rounds the refiner performed (0 when skipped).
    converged:
        Whether the refiner reached its fixed point (MQI/FlowImprove can
        exhaust ``max_rounds``; a failed MOV solve reports ``False``).
    changed:
        Whether the stage replaced the set with a strictly better one.
    """

    refiner: str
    pre_conductance: float
    post_conductance: float
    rounds: int
    converged: bool
    changed: bool


@dataclass(frozen=True)
class RefinementTrace:
    """Outcome of threading one cluster through a refiner chain.

    Attributes
    ----------
    nodes:
        The final (sorted) node set.
    steps:
        One :class:`RefinementStep` per chain stage, in order.
    initial_conductance:
        φ of the input set.
    final_conductance:
        φ of ``nodes``.
    """

    nodes: np.ndarray
    steps: tuple
    initial_conductance: float
    final_conductance: float

    @property
    def changed(self):
        """Whether any stage replaced the set."""
        return any(step.changed for step in self.steps)


class _RefinerBase:
    """Shared behavior of the refiner spec dataclasses.

    Subclasses define the class attribute ``name`` (canonical registry
    key) and implement ``refine(graph, nodes, pre_conductance=None)``
    returning ``(nodes, RefinementStep)``.  They may also implement
    :meth:`refine_many`, which must give exactly what looping ``refine``
    gives.
    """

    def refine_many(self, graph, node_sets, pre_conductances):
        """``refine`` applied to each set: one ``(nodes, step)`` per set.

        ``pre_conductances[i]`` is φ of ``node_sets[i]``, or ``None`` to
        compute it.  :class:`MQI` and :class:`FlowImprove` override this
        with MQI waves, which solve one round of every set at once.
        """
        return [
            self.refine(graph, nodes, pre_conductance=pre)
            for nodes, pre in zip(node_sets, pre_conductances)
        ]

    @staticmethod
    def _pre(graph, nodes, pre_conductance):
        if pre_conductance is not None:
            return float(pre_conductance)
        return conductance(graph, nodes)

    def params(self):
        """Ordered ``(field, value)`` pairs pinning this spec exactly."""
        return tuple(
            (f.name, getattr(self, f.name))
            for f in dataclasses.fields(self)
        )

    def token(self):
        """Canonical string form, e.g. ``"flow(dilation_radius=2,
        max_rounds=50)"`` — stable across runs, used in cache keys and
        run manifests."""
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params())
        return f"{self.name}({inner})"

    def _unchanged(self, nodes, pre, *, rounds=0, converged=True):
        return nodes, RefinementStep(
            refiner=self.token(),
            pre_conductance=pre,
            post_conductance=pre,
            rounds=rounds,
            converged=converged,
            changed=False,
        )

    def _accept_if_better(self, graph, nodes, candidate_nodes, phi, pre, *,
                          rounds, converged):
        """Keep the refined set only on strict improvement to a nonempty
        proper subset of the graph — the registry-wide invariant."""
        size = int(np.asarray(candidate_nodes).size)
        if (
            phi < pre - _IMPROVEMENT_EPS
            and 0 < size < graph.num_nodes
        ):
            refined = np.sort(
                np.asarray(candidate_nodes, dtype=np.int64)
            )
            return refined, RefinementStep(
                refiner=self.token(),
                pre_conductance=pre,
                post_conductance=float(phi),
                rounds=rounds,
                converged=converged,
                changed=True,
            )
        return self._unchanged(nodes, pre, rounds=rounds, converged=converged)


@dataclass(frozen=True)
class MQI(_RefinerBase):
    """Lang–Rao max-flow quotient-cut improvement (Section 3.3 / [25]).

    Iterated s–t max-flow rounds find the best-conductance *subset* of
    the input side; the strictly flow-based half of the paper's
    "Metis+MQI" pipeline.  Inputs whose volume exceeds half the graph
    (MQI's precondition) pass through unchanged.

    Parameters
    ----------
    max_rounds:
        Safety cap on improving max-flow rounds (each strictly decreases
        φ, so termination is guaranteed anyway for rational weights).
    """

    max_rounds: int = 100

    name: ClassVar[str] = "mqi"

    def __post_init__(self):
        check_int(self.max_rounds, "max_rounds", minimum=1)

    def refine(self, graph, nodes, pre_conductance=None):
        """One chained-refiner stage: iterated MQI inside ``nodes``."""
        return self._waves(graph, [nodes], [pre_conductance])[0]

    def refine_many(self, graph, node_sets, pre_conductances):
        """:meth:`refine` for every set, all sets' rounds in waves."""
        if type(self).refine is not MQI.refine:
            # A subclass that redefines ``refine`` keeps it per set.
            return super().refine_many(graph, node_sets, pre_conductances)
        return self._waves(graph, node_sets, pre_conductances)

    def _waves(self, graph, node_sets, pre_conductances):
        pres = [
            self._pre(graph, nodes, pre)
            for nodes, pre in zip(node_sets, pre_conductances)
        ]
        half = graph.total_volume / 2.0 + 1e-9
        fitting = [
            i for i, nodes in enumerate(node_sets)
            if float(graph.degrees[nodes].sum()) <= half
        ]
        results = _mqi_waves(
            graph, [_checked_side(graph, node_sets[i]) for i in fitting],
            max_rounds=self.max_rounds,
        )
        refined = [
            self._unchanged(nodes, pre)
            for nodes, pre in zip(node_sets, pres)
        ]
        for i, result in zip(fitting, results):
            refined[i] = self._accept_if_better(
                graph, node_sets[i], result.nodes, result.conductance,
                pres[i], rounds=result.rounds, converged=result.converged,
            )
        return refined


@dataclass(frozen=True)
class FlowImprove(_RefinerBase):
    """Andersen–Lang dilate-then-MQI improvement (Section 3.3 / [3]).

    BFS dilation lets flow *add* nearby nodes the proposal missed
    (plain MQI cannot), then iterated MQI finds the best-conductance
    subset of the dilated region.  ``dilation_radius=0`` is exactly MQI.

    Parameters
    ----------
    dilation_radius:
        BFS hops of dilation before the flow stage.
    max_rounds:
        MQI round cap inside the dilated region.
    """

    dilation_radius: int = 1
    max_rounds: int = 50

    name: ClassVar[str] = "flow"

    def __post_init__(self):
        check_int(self.dilation_radius, "dilation_radius", minimum=0)
        check_int(self.max_rounds, "max_rounds", minimum=1)

    def refine(self, graph, nodes, pre_conductance=None):
        """One chained-refiner stage: dilation + iterated MQI."""
        return self._waves(graph, [nodes], [pre_conductance])[0]

    def refine_many(self, graph, node_sets, pre_conductances):
        """:meth:`refine` for every set: all sets are dilated, then every
        region's rounds run in waves."""
        if type(self).refine is not FlowImprove.refine:
            # A subclass that redefines ``refine`` keeps it per set.
            return super().refine_many(graph, node_sets, pre_conductances)
        return self._waves(graph, node_sets, pre_conductances)

    def _waves(self, graph, node_sets, pre_conductances):
        pres = [
            self._pre(graph, nodes, pre)
            for nodes, pre in zip(node_sets, pre_conductances)
        ]
        results = _flow_improve_many(
            graph, node_sets, dilation_radius=self.dilation_radius,
            max_rounds=self.max_rounds,
        )
        refined = []
        for nodes, pre, result in zip(node_sets, pres, results):
            if result.improved:
                refined.append(self._accept_if_better(
                    graph, nodes, result.nodes, result.conductance, pre,
                    rounds=result.rounds, converged=result.converged,
                ))
            else:
                refined.append(self._unchanged(
                    nodes, pre, rounds=result.rounds,
                    converged=result.converged,
                ))
        return refined


@dataclass(frozen=True)
class MOV(_RefinerBase):
    """Locally-biased spectral improvement via Problem (8) [33].

    Treats the input cluster as the MOV seed set, solves the
    locally-biased spectral program, and keeps the sweep cut only when
    it strictly improves conductance.  Unlike the flow refiners this
    touches the whole graph (a global linear system) — exactly the cost
    contrast Section 3.3 draws; a failed solve (disconnected graph,
    degenerate seed) passes the input through unchanged.

    Parameters
    ----------
    gamma_fraction:
        Fraction of λ2 used as the resolvent shift (in [0, 1); larger is
        more global, smaller hugs the seed cluster).
    min_size:
        Minimum cluster size accepted by the MOV sweep.
    """

    gamma_fraction: float = 0.5
    min_size: int = 1

    name: ClassVar[str] = "mov"

    def __post_init__(self):
        check_probability(
            self.gamma_fraction, "gamma_fraction", inclusive_low=True
        )
        check_int(self.min_size, "min_size", minimum=1)

    def refine(self, graph, nodes, pre_conductance=None):
        """One chained-refiner stage: MOV solve + sweep from the set."""
        pre = self._pre(graph, nodes, pre_conductance)
        try:
            result = mov_cluster(
                graph, nodes, gamma_fraction=self.gamma_fraction,
                min_size=self.min_size,
            )
        except (PartitionError, ConvergenceError, GraphError,
                InvalidParameterError):
            # A degenerate seed (trivial-direction overlap) or a failed
            # solve refines nothing; the chain continues from the input.
            return self._unchanged(nodes, pre, converged=False)
        return self._accept_if_better(
            graph, nodes, result.nodes, result.conductance, pre,
            rounds=1, converged=True,
        )


@dataclass(frozen=True)
class RefinerKind:
    """One registered refiner: identity, spec type, and CLI spellings.

    Attributes
    ----------
    name:
        Display name.
    key:
        Canonical registry name (``"mqi"``, ``"flow"``, ``"mov"``).
    description:
        One-line description (shown by docs and benchmark tables).
    aliases:
        Accepted alternative spellings (``"metis_mqi"``,
        ``"flow_improve"``, ...).
    spec_type:
        The frozen spec dataclass (:class:`MQI` & co).
    field_aliases:
        ``(alias, field)`` pairs mapping short CLI parameter spellings
        (``radius``, ``rounds``, ``gamma``) onto spec fields.
    """

    name: str
    key: str
    description: str
    aliases: tuple = ()
    spec_type: type = None
    field_aliases: tuple = ()

    def default_spec(self):
        """The spec with this refiner's default knobs."""
        return self.spec_type()

    def resolve_field(self, key):
        """Map a CLI parameter spelling onto the spec field it sets."""
        return dict(self.field_aliases).get(key, key)


@dataclass(frozen=True)
class Pipeline:
    """A complete workload: one diffusion grid plus a refiner chain.

    Attributes
    ----------
    grid:
        The diffusion side — anything
        :func:`~repro.dynamics.as_diffusion_grid` accepts (a
        :class:`~repro.dynamics.DiffusionGrid`, a spec instance such as
        ``PPR(alpha=(0.05,))``, a registered name, or a
        :class:`~repro.dynamics.DynamicsKind`); normalized to a grid.
    refiners:
        Ordered refiner chain — spec instances, registered names /
        aliases, or :class:`RefinerKind` entries; normalized to spec
        instances.

    Every NCP and local-clustering entry point accepts a ``Pipeline``
    wherever it accepts a grid: the diffusion candidates are generated
    as usual, then each is threaded through the chain, carrying its
    :class:`RefinementStep` provenance.
    """

    grid: object
    refiners: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "grid", as_diffusion_grid(self.grid))
        object.__setattr__(self, "refiners", as_refiner_chain(self.refiners))

    @property
    def dynamics(self):
        """The pipeline's dynamics spec (the grid's)."""
        return self.grid.dynamics

    @property
    def key(self):
        """Canonical name of the pipeline's dynamics."""
        return self.grid.key

    def refiner_tokens(self):
        """Canonical token per chain stage (manifests, cache keys)."""
        return tuple(spec.token() for spec in self.refiners)

    def describe(self):
        """One-line ``dynamics |> refiner |> refiner`` summary."""
        return " |> ".join((self.key,) + self.refiner_tokens())


def as_pipeline(workload):
    """Coerce a workload (pipeline, grid, spec, kind, or name) to a pipeline.

    A non-pipeline value becomes a refiner-free ``Pipeline`` around the
    equivalent grid, so consumers can treat every workload uniformly.
    """
    if isinstance(workload, Pipeline):
        return workload
    return Pipeline(workload)


# --------------------------------------------------------------------------
# Chain application.


def _as_node_array(nodes):
    array = np.unique(
        np.atleast_1d(np.asarray(nodes, dtype=np.int64))
    )
    if array.size == 0:
        raise PartitionError("refiners need a nonempty node set")
    return array


def apply_refiners(graph, nodes, refiners, *, pre_conductance=None):
    """Thread one cluster through an ordered refiner chain.

    Parameters
    ----------
    graph:
        The host graph.
    nodes:
        The starting cluster (a nonempty proper node subset).
    refiners:
        Chain entries — spec instances, registered names/aliases, or
        :class:`RefinerKind` entries.
    pre_conductance:
        φ of ``nodes`` when the caller already knows it (skips one
        conductance evaluation); computed otherwise.

    Returns
    -------
    :class:`RefinementTrace` — the final set, per-stage provenance, and
    the initial/final conductance.  Every stage either strictly improves
    conductance or passes the set through unchanged, so
    ``final_conductance <= initial_conductance`` always holds.
    """
    return _refine_all(
        graph, [nodes], [pre_conductance], as_refiner_chain(refiners)
    )[0]


def _refine_all(graph, node_sets, pre_conductances, chain):
    """Thread many clusters through a chain, one stage at a time.

    Each stage refines every cluster (through ``refine_many``) before the
    next stage starts.  Clusters are independent, so every trace is what
    threading its cluster alone would give.
    """
    current = [_as_node_array(nodes) for nodes in node_sets]
    phis = [
        _RefinerBase._pre(graph, nodes, pre)
        for nodes, pre in zip(current, pre_conductances)
    ]
    initial = list(phis)
    steps = [[] for _ in current]
    for spec in chain:
        # ``refine_many`` is optional: a spec without it loops ``refine``.
        refine_many = getattr(
            type(spec), "refine_many", _RefinerBase.refine_many
        )
        for i, (nodes, step) in enumerate(
            refine_many(spec, graph, current, phis)
        ):
            current[i] = nodes
            phis[i] = step.post_conductance
            steps[i].append(step)
    return [
        RefinementTrace(
            nodes=nodes,
            steps=tuple(trail),
            initial_conductance=first,
            final_conductance=phi,
        )
        for nodes, trail, first, phi in zip(current, steps, initial, phis)
    ]


def refine_candidates(graph, candidates, refiners):
    """Apply a refiner chain to every candidate of an NCP ensemble.

    Each :class:`~repro.ncp.profile.ClusterCandidate` is replaced by its
    refined counterpart (via :func:`dataclasses.replace`, so the
    ``method`` label survives) with the per-stage provenance attached as
    ``candidate.refinement``.  Candidates no stage changed keep their
    exact nodes and conductance, so a refined ensemble stays aligned
    candidate-for-candidate with the raw ensemble it came from.
    """
    chain = as_refiner_chain(refiners)
    if not chain:
        return list(candidates)
    traces = _refine_all(
        graph,
        [candidate.nodes for candidate in candidates],
        [candidate.conductance for candidate in candidates],
        chain,
    )
    refined = []
    for candidate, trace in zip(candidates, traces):
        if trace.changed:
            refined.append(dataclasses.replace(
                candidate,
                nodes=trace.nodes,
                conductance=trace.final_conductance,
                refinement=trace.steps,
            ))
        else:
            refined.append(
                dataclasses.replace(candidate, refinement=trace.steps)
            )
    return refined


# --------------------------------------------------------------------------
# The registry.

REFINERS = Registry(
    "refiner", RefinerKind, UnknownRefinerError, spellings=("name",)
)
register_refiner = REFINERS.register
unregister_refiner = REFINERS.unregister
resolve_refiner_name = REFINERS.resolve
get_refiner = REFINERS.get
registered_refiners = REFINERS.registered


def as_refiner(refiner):
    """Coerce a chain entry (spec, name, alias, kind, or type) to a spec."""
    if isinstance(refiner, (str, RefinerKind)) or isinstance(refiner, type):
        return get_refiner(refiner).default_spec()
    get_refiner(refiner)  # raises UnknownRefinerError for foreign specs
    return refiner


def as_refiner_chain(refiners):
    """Normalize a chain (a single entry or a sequence) to spec tuples."""
    if refiners is None:
        return ()
    if isinstance(refiners, (str, RefinerKind)) or not hasattr(
        refiners, "__iter__"
    ):
        refiners = (refiners,)
    return tuple(as_refiner(entry) for entry in refiners)


METIS_MQI = register_refiner(RefinerKind(
    name="MQI",
    key="mqi",
    description=(
        "Lang-Rao iterated max-flow quotient-cut improvement: the best-"
        "conductance subset of the proposal (the Metis+MQI flow stage)"
    ),
    aliases=("metis_mqi", "lang_rao", "quotient_improvement"),
    spec_type=MQI,
    field_aliases=(("rounds", "max_rounds"),),
))

FLOW_IMPROVE = register_refiner(RefinerKind(
    name="FlowImprove",
    key="flow",
    description=(
        "Andersen-Lang dilate-then-MQI: BFS dilation lets flow add "
        "nearby nodes before the quotient improvement"
    ),
    aliases=("flow_improve", "flowimprove", "andersen_lang", "improve"),
    spec_type=FlowImprove,
    field_aliases=(("radius", "dilation_radius"), ("rounds", "max_rounds")),
))

MOV_REFINER = register_refiner(RefinerKind(
    name="MOV",
    key="mov",
    description=(
        "locally-biased spectral improvement (Problem (8)): resolvent "
        "solve seeded by the cluster, sweep kept on strict improvement"
    ),
    aliases=("mov_cluster", "locally_biased", "mahoney_orecchia_vishnoi"),
    spec_type=MOV,
    field_aliases=(("gamma", "gamma_fraction"),),
))
