"""Seed → cluster drivers: the "operational approach" of Section 3.3.

One generic driver, :func:`local_cluster`, runs a strongly local diffusion
from a seed set — any single-point spec of the three dynamics
(:mod:`repro.dynamics`) — and sweeps the (degree-normalized) output over
its support only, so that the total work — diffusion plus sweep — depends
on the output size, not on ``n``.  The spec supplies the diffusion
vectors; dynamics whose trajectory matters (the truncated walk) yield one
vector per step and the driver keeps the best cut, as Nibble does.  A
:class:`~repro.refine.Pipeline` (or the ``refiners=...`` keyword) chains
the refiners — MQI, FlowImprove, MOV — onto the sweep cluster,
with per-stage provenance on the result.

The classic methods are single-point specs: ``PPR(alpha)`` is ACL push on
personalized PageRank [1], the method the paper identifies behind the
"LocalSpectral" curve of Figure 1; ``LazyWalk(steps)`` is Spielman–Teng's
truncated random walk [39], sweeping every step of the trajectory; and
``HeatKernel(t)`` is heat-kernel push [15].

Each driver returns a :class:`LocalClusterResult` carrying both the
cluster and the work accounting used by experiment E8.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro._validation import check_probability
from repro.diffusion.seeds import degree_weighted_indicator_seed
from repro.dynamics import get_dynamics
from repro.exceptions import InvalidParameterError, PartitionError
from repro.partition.sweep import sweep_cut


@dataclass
class LocalClusterResult:
    """A locally computed cluster.

    Attributes
    ----------
    nodes:
        Sorted node ids of the cluster.
    conductance:
        φ(cluster).
    seed_nodes:
        The seed set used.
    support_size:
        Nodes touched by the diffusion (the locality certificate).
    work:
        Edge work performed by the diffusion.
    method:
        ``"acl"``, ``"nibble"``, or ``"hk"`` (the spec's
        ``local_method`` label).
    contains_seed:
        Whether every seed node ended up inside the cluster — Section 3.3
        warns this can be False ("a seed node not being part of 'its own
        cluster' can easily happen"), and experiment E9 counts how often.
    refinement:
        Per-stage :class:`~repro.refine.RefinementStep` provenance when a
        refiner chain post-processed the sweep cluster; empty otherwise.
        ``nodes``/``conductance``/``contains_seed`` describe the refined
        cluster; ``support_size``/``work`` keep the diffusion accounting.
    """

    nodes: np.ndarray
    conductance: float
    seed_nodes: np.ndarray
    support_size: int
    work: int
    method: str
    contains_seed: bool
    refinement: tuple = ()


def _finish(graph, scores, restrict_to, seed_nodes, work, method,
            max_volume, min_size):
    if restrict_to.size == 0:
        raise PartitionError(f"{method}: diffusion support is empty")
    sweep = sweep_cut(
        graph, scores, degree_normalize=True, restrict_to=restrict_to,
        max_volume=max_volume, min_size=min_size,
    )
    seed_arr = np.asarray(sorted(set(int(s) for s in seed_nodes)),
                          dtype=np.int64)
    cluster = sweep.nodes
    contains = bool(np.isin(seed_arr, cluster).all())
    return LocalClusterResult(
        nodes=cluster,
        conductance=sweep.conductance,
        seed_nodes=seed_arr,
        support_size=int(restrict_to.size),
        work=int(work),
        method=method,
        contains_seed=contains,
    )


def _as_point_spec(graph, dynamics):
    """Resolve a name / alias / spec into a single-point dynamics spec."""
    if isinstance(dynamics, str):
        return get_dynamics(dynamics).local_spec(graph)
    get_dynamics(dynamics)  # raises UnknownDynamicsError for foreign specs
    return dynamics


def local_cluster(graph, seed_nodes, dynamics="ppr", *, epsilon=1e-4,
                  max_volume=None, min_size=1, refiners=()):
    """Local cluster via one dynamics' diffusion + sweep.

    Parameters
    ----------
    graph:
        Graph with positive degrees.
    seed_nodes:
        Seed set (ids).
    dynamics:
        A single-point spec — ``PPR(alpha=0.1)``, ``HeatKernel(t=5.0)``,
        ``LazyWalk(steps=40)`` — or a dynamics name / alias
        (``"ppr"``/``"acl"``, ``"hk"``, ``"walk"``/``"nibble"``), which
        resolves to the dynamics' default local point spec (the walk's
        default step count depends on the graph size).  Grid-valued specs
        are rejected: a local driver needs one aggressiveness point.
        A :class:`~repro.refine.Pipeline` is accepted too: its dynamics
        spec drives the diffusion and its refiner chain post-processes
        the sweep cluster (exclusive with the ``refiners`` keyword).
    epsilon:
        Truncation threshold; smaller ε = larger support = weaker
        regularization.
    max_volume:
        Optional volume cap on the sweep (Problem (9)'s k).
    min_size:
        Minimum cluster size accepted by the sweep.
    refiners:
        Optional refiner chain (:mod:`repro.refine` specs, names, or
        aliases) applied to the best sweep cluster; per-stage provenance
        lands in ``LocalClusterResult.refinement``.

    Returns
    -------
    LocalClusterResult

    Notes
    -----
    Dynamics with a trajectory (the truncated walk) yield one score vector
    per step; every vector is swept and the best admissible cut wins, as
    Nibble does.  Single-vector dynamics (ACL push, heat-kernel push)
    reduce to one diffusion + one sweep.
    """
    from repro.refine import Pipeline, apply_refiners, as_refiner_chain

    if isinstance(dynamics, Pipeline):
        if refiners:
            raise InvalidParameterError(
                "local_cluster received both a Pipeline and a refiners "
                "keyword; the pipeline carries the full chain"
            )
        refiners = dynamics.refiners
        dynamics = dynamics.grid.dynamics
    chain = as_refiner_chain(refiners)
    spec = _as_point_spec(graph, dynamics)
    epsilon = check_probability(epsilon, "epsilon")
    method = spec.local_method
    seed_vector = degree_weighted_indicator_seed(graph, seed_nodes)
    best = None
    for scores, work in spec.local_sweep_vectors(
        graph, seed_vector, epsilon=epsilon
    ):
        support = np.flatnonzero(scores > 0)
        if support.size == 0:
            continue
        try:
            candidate = _finish(
                graph, scores, support, seed_nodes, work, method,
                max_volume, min_size,
            )
        except PartitionError:
            continue
        if best is None or candidate.conductance < best.conductance:
            best = candidate
    if best is None:
        raise PartitionError(
            f"{method}: no diffusion vector produced an admissible sweep"
        )
    if chain:
        trace = apply_refiners(
            graph, best.nodes, chain, pre_conductance=best.conductance
        )
        if trace.changed:
            best = dataclasses.replace(
                best,
                nodes=trace.nodes,
                conductance=trace.final_conductance,
                contains_seed=bool(
                    np.isin(best.seed_nodes, trace.nodes).all()
                ),
                refinement=trace.steps,
            )
        else:
            best = dataclasses.replace(best, refinement=trace.steps)
    return best
