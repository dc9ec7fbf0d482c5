"""Graph partitioning: metrics, sweep cuts, spectral and flow-based global
partitioners, strongly local methods, and MOV locally-biased spectral."""

from repro.partition.flow_improve import (
    FlowImproveResult,
    dilate,
    flow_improve,
)
from repro.partition.local import (
    LocalClusterResult,
    best_local_cluster,
    local_cluster,
)
from repro.partition.maxflow import FlowNetwork, MaxFlowResult
from repro.partition.metrics import (
    balance,
    cheeger_lower_bound,
    cheeger_upper_bound,
    conductance,
    cut_and_volumes,
    expansion,
    graph_conductance_exact,
    internal_conductance,
)
from repro.partition.mov import MOVResult, kappa_for_gamma, mov_cluster, mov_vector
from repro.partition.mqi import MQIResult, mqi, mqi_certificate
from repro.partition.multilevel import (
    BisectionResult,
    contract,
    fm_refine,
    heavy_edge_matching,
    multilevel_bisection,
    recursive_bisection_clusters,
)
from repro.partition.spectral import (
    SpectralCutResult,
    cheeger_certificate,
    spectral_bisection_median,
    spectral_cut,
)
from repro.partition.sweep import SweepCutResult, sweep_cut

__all__ = [
    "BisectionResult",
    "FlowImproveResult",
    "FlowNetwork",
    "LocalClusterResult",
    "MOVResult",
    "MQIResult",
    "MaxFlowResult",
    "SpectralCutResult",
    "SweepCutResult",
    "balance",
    "best_local_cluster",
    "cheeger_certificate",
    "cheeger_lower_bound",
    "cheeger_upper_bound",
    "conductance",
    "contract",
    "cut_and_volumes",
    "dilate",
    "expansion",
    "flow_improve",
    "fm_refine",
    "graph_conductance_exact",
    "heavy_edge_matching",
    "internal_conductance",
    "kappa_for_gamma",
    "local_cluster",
    "mov_cluster",
    "mov_vector",
    "mqi",
    "mqi_certificate",
    "multilevel_bisection",
    "recursive_bisection_clusters",
    "spectral_bisection_median",
    "spectral_cut",
    "sweep_cut",
]
