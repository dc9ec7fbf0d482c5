"""The paper's three canonical diffusion dynamics and their strongly local
approximations: heat kernel, PageRank, lazy random walk; ACL push,
Spielman–Teng truncated walks, heat-kernel push."""

from repro.diffusion.engine import (
    BatchHeatKernelResult,
    BatchPushResult,
    batch_hk_push,
    batch_ppr_push,
    gather_csr_arcs,
    ppr_push_frontier,
)
from repro.diffusion.heat_kernel import (
    heat_kernel_matrix,
    heat_kernel_vector,
)
from repro.diffusion.hk_push import (
    SERIES_T_MAX,
    HeatKernelPushResult,
    heat_kernel_push,
    poisson_tail,
    terms_for_tail,
)
from repro.diffusion.lazy_walk import (
    lazy_walk_matrix_power_dense,
    lazy_walk_vector,
)
from repro.diffusion.pagerank import (
    lazy_equivalent_gamma,
    lazy_pagerank_exact,
    pagerank_exact,
    pagerank_operator,
    pagerank_power,
    pagerank_resolvent_dense,
)
from repro.diffusion.push import (
    PushResult,
    approximate_ppr_push,
    push_invariant_residual,
)
from repro.diffusion.seeds import (
    degree_seed,
    degree_weighted_indicator_seed,
    indicator_seed,
)
from repro.diffusion.truncated_walk import (
    TruncatedWalkResult,
    truncated_lazy_walk,
    untruncated_lazy_walk,
)

__all__ = [
    "BatchHeatKernelResult",
    "BatchPushResult",
    "HeatKernelPushResult",
    "PushResult",
    "SERIES_T_MAX",
    "TruncatedWalkResult",
    "approximate_ppr_push",
    "batch_hk_push",
    "batch_ppr_push",
    "gather_csr_arcs",
    "degree_seed",
    "degree_weighted_indicator_seed",
    "heat_kernel_matrix",
    "heat_kernel_push",
    "heat_kernel_vector",
    "indicator_seed",
    "lazy_equivalent_gamma",
    "lazy_pagerank_exact",
    "lazy_walk_matrix_power_dense",
    "lazy_walk_vector",
    "pagerank_exact",
    "pagerank_operator",
    "pagerank_power",
    "pagerank_resolvent_dense",
    "poisson_tail",
    "ppr_push_frontier",
    "push_invariant_residual",
    "terms_for_tail",
    "truncated_lazy_walk",
    "untruncated_lazy_walk",
]
