"""Network community profiles (NCP): size-resolved best conductance.

The NCP plot of Leskovec et al. [27, 28] — the substrate of the paper's
Figure 1 — asks: *for every cluster size k, what is the best conductance
achievable by a size-k cluster, according to a given approximation
algorithm?* Different approximation algorithms draw different curves on the
same graph, and the systematic gap between the spectral and the flow curves
is the paper's empirical evidence for implicit regularization.

Two ensemble generators:

* :func:`cluster_ensemble_ncp` — the diffusion side, for *any* of the
  three dynamics: a :class:`~repro.dynamics.DiffusionGrid` (spec × epsilons ×
  seed sampling) is swept column by column, and every best-per-octave
  sweep prefix of every column is a candidate cluster.  PPR reproduces
  the paper's "LocalSpectral (blue)" curve; the heat kernel and the
  truncated lazy walk are the other two canonical dynamics of Section
  3.1.
* :func:`flow_cluster_ensemble_ncp` — the "Metis+MQI (red)" side: recursive
  multilevel bisection proposes clusters at all scales, each improved by
  a refiner chain from :data:`repro.refine.REFINERS` (:mod:`repro.refine`;
  ``("mqi",)`` by default — exactly the paper's Metis+MQI pipeline).

Both generators also speak :class:`~repro.refine.Pipeline`:
``cluster_ensemble_ncp(graph, Pipeline(PPR(), refiners=("mqi",)))``
threads every diffusion candidate through the chain, attaching per-stage
:class:`~repro.refine.RefinementStep` provenance.

Candidates are reduced to a profile by :func:`best_per_size_bucket`. For
large grids, :mod:`repro.ncp.runner` shards the diffusion ensembles across
worker processes and memoizes chunk results on disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._validation import as_rng, check_int, check_numpy_backend
from repro.dynamics import get_dynamics
from repro.exceptions import InvalidParameterError, PartitionError
from repro.partition.metrics import conductance
from repro.partition.multilevel import recursive_bisection_clusters
from repro.partition.sweep import sweep_support
from repro.refine import (
    as_pipeline,
    as_refiner_chain,
    refine_candidates,
)


@dataclass
class ClusterCandidate:
    """One candidate cluster in an NCP ensemble.

    Attributes
    ----------
    nodes:
        Sorted node ids.
    conductance:
        φ in the host graph.
    method:
        Producing algorithm (``"spectral"``, ``"hk"``, ``"walk"``, or
        ``"flow"``).
    refinement:
        Per-stage :class:`~repro.refine.RefinementStep` provenance when
        the candidate went through a refiner chain (pre/post
        conductance, refiner token, rounds, convergence per stage);
        empty for raw candidates.
    """

    nodes: np.ndarray
    conductance: float
    method: str
    refinement: tuple = ()

    @property
    def size(self):
        return int(self.nodes.size)

    @property
    def refined(self):
        """Whether any refiner stage replaced this candidate's nodes."""
        return any(step.changed for step in self.refinement)


@dataclass
class NCPProfile:
    """A size-bucketed best-conductance profile.

    Attributes
    ----------
    method:
        Ensemble label.
    bucket_edges:
        Log-spaced size-bucket boundaries (length ``b + 1``).
    best_conductance:
        Best φ per bucket (NaN for empty buckets).
    representatives:
        Best candidate per bucket (None for empty buckets).
    num_candidates:
        Ensemble size before bucketing.
    """

    method: str
    bucket_edges: np.ndarray
    best_conductance: np.ndarray
    representatives: list = field(repr=False, default_factory=list)
    num_candidates: int = 0


def _sample_seed_nodes(graph, num_seeds, rng):
    """Sample seed nodes by degree (stationary measure), as in [27]."""
    probabilities = graph.degrees / graph.total_volume
    return rng.choice(
        graph.num_nodes, size=num_seeds, replace=True, p=probabilities
    )


def _record_sweep_candidates(graph, rows, values, candidates, method,
                             max_cluster_size):
    """Sweep one diffusion column and record best-per-octave candidates.

    The column is ``values`` at the ascending nodes ``rows`` and 0.0
    everywhere else, so its positive entries, the sweep's support, are
    found without touching the other nodes.
    """
    if not np.all(np.isfinite(values)):
        raise InvalidParameterError("scores must contain only finite values")
    positive = values > 0
    support = rows[positive]
    if support.size < 2:
        return
    try:
        sweep = sweep_support(
            graph, support, values[positive], max_size=max_cluster_size
        )
    except PartitionError:
        return
    _octave_candidates(sweep, candidates, method, max_cluster_size)


def cluster_ensemble_ncp(graph, grid):
    """Generate the NCP candidate ensemble for one diffusion workload.

    The single generator behind every diffusion dynamics: samples
    ``grid.num_seeds`` seed nodes by degree from ``grid.seed``'s RNG
    stream, runs the spec's full seed × axis × epsilon grid, and records
    the best sweep prefix of every diffusion column per size octave.

    Parameters
    ----------
    graph:
        Graph with positive degrees.
    grid:
        A :class:`~repro.dynamics.DiffusionGrid` — or anything
        :func:`~repro.dynamics.as_diffusion_grid` accepts (a spec instance
        such as ``PPR(alpha=(0.05,))``, a dynamics name like ``"hk"``,
        or a :class:`~repro.dynamics.DynamicsKind`) — or a
        :class:`~repro.refine.Pipeline`, in which case every candidate is
        additionally threaded through the pipeline's refiner chain
        (carrying :class:`~repro.refine.RefinementStep` provenance).

    Returns
    -------
    list of :class:`ClusterCandidate`, with ``method`` set to the spec's
    candidate label (``"spectral"`` / ``"hk"`` / ``"walk"``).
    """
    pipeline = as_pipeline(grid)
    grid = pipeline.grid
    rng = as_rng(grid.seed)
    seed_nodes = _sample_seed_nodes(graph, grid.num_seeds, rng)
    candidates = grid_candidates_for_seed_nodes(
        graph,
        seed_nodes,
        grid.dynamics,
        epsilons=grid.resolved_epsilons(),
        max_cluster_size=grid.resolve_max_cluster_size(graph),
    )
    if pipeline.refiners:
        candidates = refine_candidates(graph, candidates, pipeline.refiners)
    return candidates


def grid_candidates_for_seed_nodes(graph, seed_nodes, spec, *, epsilons,
                                   max_cluster_size, backend=None):
    """NCP candidates of one dynamics for explicit seed nodes.

    The sharding entry point used by :mod:`repro.ncp.runner`: the caller
    controls exactly which seed nodes this invocation covers, so grid
    chunks can be distributed across processes and merged
    deterministically.  Dispatch is fully generic — the spec's
    ``support_columns`` provides each diffusion column as its support and
    the values there, and this function sweeps that support only.
    ``backend`` may only be ``None`` or ``"numpy"``.
    """
    check_numpy_backend(backend)
    get_dynamics(spec)  # raises UnknownDynamicsError for foreign specs
    label = spec.candidate_label
    candidates = []
    columns = spec.support_columns(graph, seed_nodes, epsilons=epsilons)
    for rows, values in columns:
        _record_sweep_candidates(
            graph, rows, values, candidates, label, max_cluster_size
        )
    return candidates


def _octave_candidates(sweep, out, method, max_cluster_size):
    """Push best-per-octave sweep prefixes into ``out``.

    A sweep profile holds finite conductances and ``inf`` for the prefixes
    it did not score, never NaN, so ``argmin`` picks the first finite
    minimum whenever the octave has one.
    """
    profile = sweep.profile
    order = sweep.order
    size_limit = min(profile.shape[0], max_cluster_size)
    octave_start = 1
    while octave_start <= size_limit:
        octave_stop = min(2 * octave_start, size_limit + 1)
        window = profile[octave_start - 1:octave_stop - 1]
        local_best = int(np.argmin(window))
        if np.isfinite(window[local_best]):
            k = octave_start + local_best
            out.append(
                ClusterCandidate(
                    nodes=np.sort(order[:k].astype(np.int64)),
                    conductance=float(window[local_best]),
                    method=method,
                )
            )
        octave_start = octave_stop
        if octave_stop > size_limit:
            break


def _unique_clusters(clusters):
    """Drop exact duplicate node sets, preserving first-seen order.

    Keyed on the full sorted membership bytes: summary keys (size,
    endpoints, checksums) can alias distinct clusters and silently drop
    real candidates from the ensemble.
    """
    seen = set()
    unique = []
    for nodes in clusters:
        key = np.ascontiguousarray(nodes, dtype=np.int64).tobytes()
        if key in seen:
            continue
        seen.add(key)
        unique.append(nodes)
    return unique


def flow_cluster_ensemble_ncp(graph, *, min_size=4, seed=None,
                              refiners=("mqi",), max_refine_size=None):
    """Generate the flow candidate ensemble: recursive bisection + refiners.

    Every side of every recursive multilevel bisection is a candidate;
    each is additionally threaded through ``refiners`` — any chain from
    :data:`repro.refine.REFINERS` — and the refined set is
    appended as a second candidate when it strictly improves conductance.
    The default chain ``("mqi",)`` is exactly the paper's "Metis+MQI"
    pipeline; ``refiners=()`` yields the raw bisection ensemble.

    Parameters
    ----------
    graph:
        Graph with positive degrees.
    min_size:
        Bisection recursion floor.
    seed:
        RNG seed for the multilevel coarsening.
    refiners:
        Refiner chain applied to every bisection side — spec instances
        (``MQI(max_rounds=50)``), refiner names/aliases (``"mqi"``,
        ``"flow"``, ``"mov"``, ``"metis_mqi"``, ...), or a mix.
    max_refine_size:
        Skip refinement for sides larger than this many nodes
        (``None`` = refine every side whose preconditions hold).

    Returns a list of :class:`ClusterCandidate`; refined candidates carry
    per-stage :class:`~repro.refine.RefinementStep` provenance.
    """
    chain = as_refiner_chain(refiners)
    clusters = recursive_bisection_clusters(
        graph, min_size=min_size, seed=seed
    )
    if max_refine_size is None:
        max_refine_size = graph.num_nodes
    sides = [
        ClusterCandidate(
            nodes=nodes, conductance=conductance(graph, nodes), method="flow"
        )
        for nodes in _unique_clusters(clusters)
    ]
    # One refine_candidates call, so MQI runs every side's rounds in waves.
    refined = iter(refine_candidates(
        graph, [side for side in sides if side.size <= max_refine_size],
        chain,
    ))
    candidates = []
    for side in sides:
        candidates.append(side)
        if chain and side.size <= max_refine_size:
            better = next(refined)
            if better.refined and better.conductance < side.conductance - 1e-15:
                candidates.append(better)
    return candidates


def best_per_size_bucket(candidates, *, num_buckets=12, min_size=2,
                         max_size=None, method=None):
    """Reduce a candidate ensemble to a log-bucketed NCP profile."""
    check_int(num_buckets, "num_buckets", minimum=1)
    pool = [
        c for c in candidates
        if (method is None or c.method == method) and c.size >= min_size
    ]
    if not pool:
        raise PartitionError("no candidates to profile")
    sizes = np.asarray([c.size for c in pool])
    if max_size is None:
        max_size = int(sizes.max())
    edges = np.unique(
        np.geomspace(min_size, max(max_size, min_size + 1), num_buckets + 1)
    )
    best = np.full(edges.size - 1, np.nan)
    representatives = [None] * (edges.size - 1)
    for candidate in pool:
        bucket = int(np.searchsorted(edges, candidate.size, side="right")) - 1
        if candidate.size == edges[-1]:
            # A size exactly on the top bucket edge lands past the last
            # bucket under right-open bucketing; clamp it into the last
            # bucket so the largest cluster is profiled, not dropped.
            bucket = best.size - 1
        if bucket < 0 or bucket >= best.size:
            continue
        if np.isnan(best[bucket]) or candidate.conductance < best[bucket]:
            best[bucket] = candidate.conductance
            representatives[bucket] = candidate
    label = method if method is not None else pool[0].method
    return NCPProfile(
        method=label,
        bucket_edges=edges,
        best_conductance=best,
        representatives=representatives,
        num_candidates=len(pool),
    )
