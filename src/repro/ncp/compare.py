"""The Figure 1 engine: spectral-vs-flow cluster comparison.

Runs both NCP ensembles on one graph, buckets them by size, attaches the
niceness measures to each bucket representative, and summarizes the three
panels of the paper's Figure 1:

* panel (a): conductance per size — the *flow* curve should dominate
  (lower φ);
* panel (b): average shortest-path length — the *spectral* representatives
  should be more compact (lower);
* panel (c): external/internal conductance ratio — the *spectral*
  representatives should be nicer (lower).
Two statistics per panel are available: the per-bucket *lower envelope*
(best-conductance representative, :func:`figure1_comparison`'s buckets) and
the per-bucket *cloud medians* (:func:`bucket_cloud_niceness`), which match
the paper's scatter-plot reading — Figure 1 plots every cluster found, and
its (b)/(c) claims are about where each method's cloud sits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dynamics import PPR, DiffusionGrid
from repro.exceptions import InvalidParameterError
from repro.ncp.niceness import cluster_niceness
from repro.ncp.profile import (
    best_per_size_bucket,
    flow_cluster_ensemble_ncp,
)
from repro.refine import as_pipeline


@dataclass
class BucketComparison:
    """One size bucket of the Figure 1 comparison.

    Attributes
    ----------
    size_low, size_high:
        Bucket boundaries (node counts).
    spectral_phi, flow_phi:
        Best conductance per method (NaN when the bucket is empty).
    spectral_niceness, flow_niceness:
        :class:`~repro.ncp.niceness.ClusterNiceness` of the representatives
        (None when empty).
    """

    size_low: float
    size_high: float
    spectral_phi: float
    flow_phi: float
    spectral_niceness: object
    flow_niceness: object


@dataclass
class Figure1Result:
    """Full spectral-vs-flow comparison on one graph.

    Attributes
    ----------
    buckets:
        Per-size-bucket comparisons (lower-envelope representatives).
    spectral_candidates, flow_candidates:
        Ensemble sizes.
    spectral_pool, flow_pool:
        The full candidate ensembles (the scatter "clouds" of the paper's
        Figure 1), kept for cloud-level statistics.
    """

    buckets: list = field(default_factory=list)

    spectral_candidates: int = 0
    flow_candidates: int = 0
    spectral_pool: list = field(repr=False, default_factory=list)
    flow_pool: list = field(repr=False, default_factory=list)

    def joint_buckets(self):
        """Buckets where both methods produced a representative."""
        return [
            b for b in self.buckets
            if np.isfinite(b.spectral_phi) and np.isfinite(b.flow_phi)
        ]

    def flow_wins_conductance(self):
        """Fraction of joint buckets where flow finds lower φ (panel a)."""
        joint = self.joint_buckets()
        if not joint:
            return float("nan")
        wins = sum(1 for b in joint if b.flow_phi <= b.spectral_phi)
        return wins / len(joint)

    def spectral_wins_path_length(self):
        """Fraction of joint buckets where spectral clusters are more
        compact (panel b)."""
        joint = [
            b for b in self.joint_buckets()
            if b.spectral_niceness is not None and b.flow_niceness is not None
        ]
        if not joint:
            return float("nan")
        wins = sum(
            1 for b in joint
            if b.spectral_niceness.average_path_length
            <= b.flow_niceness.average_path_length
        )
        return wins / len(joint)

    def spectral_wins_conductance_ratio(self):
        """Fraction of joint buckets where spectral clusters have the lower
        external/internal conductance ratio (panel c)."""
        joint = [
            b for b in self.joint_buckets()
            if b.spectral_niceness is not None and b.flow_niceness is not None
        ]
        if not joint:
            return float("nan")
        wins = sum(
            1 for b in joint
            if b.spectral_niceness.conductance_ratio
            <= b.flow_niceness.conductance_ratio
        )
        return wins / len(joint)


@dataclass
class CloudBucket:
    """Per-bucket cloud-median niceness of the two ensembles.

    Attributes
    ----------
    size_low, size_high:
        Bucket boundaries.
    spectral_ratio, flow_ratio:
        Median external/internal conductance ratio over sampled candidates
        (capped at ``ratio_cap`` so disconnected clusters count as very
        bad instead of breaking the median).
    spectral_aspl, flow_aspl:
        Median average shortest-path length.
    spectral_count, flow_count:
        Candidates sampled per method.
    """

    size_low: float
    size_high: float
    spectral_ratio: float
    flow_ratio: float
    spectral_aspl: float
    flow_aspl: float
    spectral_count: int
    flow_count: int


def bucket_cloud_niceness(graph, result, *, samples_per_bucket=8, seed=0,
                          ratio_cap=50.0):
    """Cloud-median niceness per size bucket for both ensembles.

    Samples up to ``samples_per_bucket`` candidates per method per bucket
    from the pools stored in a :class:`Figure1Result` and reports the median
    niceness values — the statistic corresponding to reading the paper's
    scatter panels (b) and (c) as clouds.
    """
    edges = (
        [b.size_low for b in result.buckets]
        + [result.buckets[-1].size_high]
        if result.buckets
        else []
    )
    rng = np.random.default_rng(seed)
    clouds = []
    for low, high in zip(edges[:-1], edges[1:]):
        stats = {}
        for label, pool in (
            ("spectral", result.spectral_pool),
            ("flow", result.flow_pool),
        ):
            in_bucket = [c for c in pool if low <= c.size < high]
            if len(in_bucket) > samples_per_bucket:
                picks = rng.choice(
                    len(in_bucket), samples_per_bucket, replace=False
                )
                in_bucket = [in_bucket[i] for i in picks]
            ratios, aspls = [], []
            for candidate in in_bucket:
                niceness = cluster_niceness(graph, candidate.nodes, seed=0)
                ratios.append(min(niceness.conductance_ratio, ratio_cap))
                aspls.append(niceness.average_path_length)
            stats[label] = (
                float(np.median(ratios)) if ratios else float("nan"),
                float(np.median(aspls)) if aspls else float("nan"),
                len(in_bucket),
            )
        clouds.append(
            CloudBucket(
                size_low=float(low),
                size_high=float(high),
                spectral_ratio=stats["spectral"][0],
                flow_ratio=stats["flow"][0],
                spectral_aspl=stats["spectral"][1],
                flow_aspl=stats["flow"][1],
                spectral_count=stats["spectral"][2],
                flow_count=stats["flow"][2],
            )
        )
    return clouds


def figure1_comparison(
    graph,
    *,
    grid=None,
    num_buckets=10,
    num_seeds=None,
    min_cluster_size=4,
    seed=None,
    niceness_seed=0,
    num_workers=0,
    cache_dir=None,
    flow_refiners=("mqi",),
):
    """Run the complete Figure 1 experiment on one graph.

    Returns a :class:`Figure1Result`.  ``grid`` is the diffusion-side
    workload — a :class:`~repro.dynamics.DiffusionGrid` (or spec /
    registered name), or a :class:`~repro.refine.Pipeline` to refine the
    diffusion cloud too; by default the paper's LocalSpectral grid,
    ``DiffusionGrid(PPR(), num_seeds=num_seeds or 40, seed=seed)``, is
    used.  ``num_seeds`` applies only to that default grid — an explicit
    ``grid`` carries its own seed sampling, and combining the two raises.
    The diffusion ensemble goes through :mod:`repro.ncp.runner`, so
    ``num_workers >= 1`` shards its grid across processes and
    ``cache_dir`` memoizes the shards on disk; both leave the result
    unchanged.  ``seed`` also drives the flow ensemble's recursive
    bisection, ``flow_refiners`` is the refiner chain the flow cloud is
    improved with (the default ``("mqi",)`` is the paper's Metis+MQI;
    any registered chain — e.g. ``(FlowImprove(dilation_radius=2),)`` —
    swaps in through :mod:`repro.refine`), and ``num_buckets`` controls
    the size resolution of the panels.
    """
    from repro.ncp.runner import run_ncp_ensemble

    if grid is None:
        grid = DiffusionGrid(
            PPR(), num_seeds=num_seeds if num_seeds is not None else 40,
            seed=seed,
        )
    else:
        if num_seeds is not None:
            raise InvalidParameterError(
                "figure1_comparison received both a grid and num_seeds; "
                "the grid carries the full diffusion workload"
            )
        # A Pipeline passes through whole (the runner threads its refiner
        # chain); anything else normalizes to a plain grid.
        grid = as_pipeline(grid)

    spectral = run_ncp_ensemble(
        graph, grid, num_workers=num_workers, cache_dir=cache_dir,
    ).candidates
    flow = flow_cluster_ensemble_ncp(
        graph, min_size=min_cluster_size, seed=seed, refiners=flow_refiners,
    )
    all_sizes = [c.size for c in spectral + flow]
    max_size = max(all_sizes) if all_sizes else graph.num_nodes // 2
    spectral_profile = best_per_size_bucket(
        spectral, num_buckets=num_buckets, min_size=min_cluster_size,
        max_size=max_size,
    )
    flow_profile = best_per_size_bucket(
        flow, num_buckets=num_buckets, min_size=min_cluster_size,
        max_size=max_size,
    )
    result = Figure1Result(
        spectral_candidates=len(spectral),
        flow_candidates=len(flow),
        spectral_pool=spectral,
        flow_pool=flow,
    )
    edges = spectral_profile.bucket_edges
    for i in range(edges.size - 1):
        spectral_rep = spectral_profile.representatives[i]
        flow_rep = (
            flow_profile.representatives[i]
            if i < len(flow_profile.representatives)
            else None
        )
        spectral_nice = (
            cluster_niceness(graph, spectral_rep.nodes, seed=niceness_seed)
            if spectral_rep is not None
            else None
        )
        flow_nice = (
            cluster_niceness(graph, flow_rep.nodes, seed=niceness_seed)
            if flow_rep is not None
            else None
        )
        result.buckets.append(
            BucketComparison(
                size_low=float(edges[i]),
                size_high=float(edges[i + 1]),
                spectral_phi=float(spectral_profile.best_conductance[i]),
                flow_phi=(
                    float(flow_profile.best_conductance[i])
                    if i < flow_profile.best_conductance.size
                    else float("nan")
                ),
                spectral_niceness=spectral_nice,
                flow_niceness=flow_nice,
            )
        )
    return result
