"""Network community profiles and the Figure 1 spectral-vs-flow engine."""

from repro.ncp.compare import (
    BucketComparison,
    CloudBucket,
    Figure1Result,
    bucket_cloud_niceness,
    figure1_comparison,
)
from repro.ncp.niceness import ClusterNiceness, cluster_niceness
from repro.ncp.profile import (
    ClusterCandidate,
    NCPProfile,
    best_per_size_bucket,
    cluster_ensemble_ncp,
    flow_cluster_ensemble_ncp,
    grid_candidates_for_seed_nodes,
)
from repro.ncp.runner import (
    GridChunk,
    NCPRunResult,
    graph_fingerprint,
    plan_chunks,
    run_ncp_ensemble,
)

__all__ = [
    "BucketComparison",
    "CloudBucket",
    "bucket_cloud_niceness",
    "ClusterCandidate",
    "ClusterNiceness",
    "Figure1Result",
    "GridChunk",
    "NCPProfile",
    "NCPRunResult",
    "best_per_size_bucket",
    "cluster_ensemble_ncp",
    "cluster_niceness",
    "figure1_comparison",
    "flow_cluster_ensemble_ncp",
    "graph_fingerprint",
    "grid_candidates_for_seed_nodes",
    "plan_chunks",
    "run_ncp_ensemble",
]
