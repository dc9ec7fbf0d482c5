"""``repro.api`` — the one public facade of the package.

This module holds the only hand-written export list; :mod:`repro`
re-exports it unchanged, so ``repro.X`` and ``repro.api.X`` are the same
object for every name below. Everything a downstream user needs to run
the paper's three canonical diffusion dynamics — and any newly
registered one — through one vocabulary:

* **Graphs** — :class:`Graph` and :func:`from_edges`.

* **Specs & grids** — :class:`PPR`, :class:`HeatKernel`, :class:`LazyWalk`,
  :class:`DiffusionGrid`; the registry (:func:`get_dynamics`,
  :func:`canonical_dynamics`, :func:`register_dynamics`).
* **Refiners & pipelines** — :class:`MQI`, :class:`FlowImprove`,
  :class:`MOV`, :class:`Pipeline` and the refiner registry
  (:func:`get_refiner`, :func:`register_refiner`,
  :func:`apply_refiners`): composable cluster improvement for any NCP
  or local-clustering entry point.
* **Executors** — :class:`ExecutorKind` and its registry
  (:func:`get_executor`, :func:`register_executor`,
  :func:`registered_executors`): the ``serial`` / ``process`` /
  ``chaos`` execution strategies behind every ``executor=`` keyword,
  plus :class:`RetryPolicy` for the retry / straggler-re-dispatch
  driver and :class:`Chaos` / :class:`FaultPlan` for deterministic
  fault injection.
* **NCP ensembles** — :func:`cluster_ensemble_ncp` (any grid, in-process),
  :func:`run_ncp_ensemble` (sharded / pooled / memoized),
  :func:`flow_cluster_ensemble_ncp`, :func:`best_per_size_bucket`,
  :func:`figure1_comparison`, :func:`run_multidynamics_ncp`.
* **Local clustering** — :func:`local_cluster` (single-point specs).
* **Graphs by name** — :func:`load_graph` / :func:`suite_names` (the
  named suite) and :func:`load_any_graph` (suite name *or* external
  edge-list/JSON file; :class:`UnknownGraphError` on neither).
* **Strongly local kernels** — :func:`batch_ppr_push` /
  :class:`BatchPushResult` (many ACL pushes at once) and
  :func:`ppr_push_frontier` (one push, frontier-batched).
* **Verification** — :func:`verify_paper_theorem` (Section 3.1,
  numerically).
* **Errors** — :class:`ReproError` and its subclasses.

The same vocabulary is scriptable without Python: ``python -m repro``
(:mod:`repro.cli`) exposes the suite, the NCP runner, the local driver,
and the linter as subcommands; every run that produces files writes a
JSON run manifest.

Quickstart::

    from repro.api import (DiffusionGrid, HeatKernel, PPR,
                           cluster_ensemble_ncp, local_cluster)
    from repro.datasets import load_graph

    graph = load_graph("atp")
    cluster = local_cluster(graph, [5], PPR(alpha=0.1), epsilon=1e-4)
    candidates = cluster_ensemble_ncp(
        graph, DiffusionGrid(HeatKernel(t=(3.0, 10.0)), num_seeds=20, seed=0)
    )
"""

from __future__ import annotations

from repro.core.experiments import run_multidynamics_ncp
from repro.core.framework import verify_paper_theorem
from repro.datasets.suite import (
    UnknownGraphError,
    load_any_graph,
    load_graph,
    suite_names,
)
from repro.dynamics import (
    ApproximateComputation,
    DiffusionGrid,
    DynamicsKind,
    HeatKernel,
    LazyWalk,
    PPR,
    UnknownDynamicsError,
    as_diffusion_grid,
    canonical_dynamics,
    get_dynamics,
    register_dynamics,
    registered_dynamics,
    unregister_dynamics,
)
from repro.diffusion.engine import (
    BatchPushResult,
    batch_ppr_push,
    ppr_push_frontier,
)
from repro.exceptions import (
    ConvergenceError,
    DisconnectedGraphError,
    EmptyGraphError,
    FlowError,
    GraphError,
    InvalidParameterError,
    PartitionError,
    ReproError,
)
from repro.graph.build import from_edges
from repro.graph.graph import Graph
from repro.ncp.compare import Figure1Result, figure1_comparison
from repro.refine import (
    FlowImprove,
    MOV,
    MQI,
    Pipeline,
    RefinementStep,
    RefinementTrace,
    RefinerKind,
    UnknownRefinerError,
    apply_refiners,
    as_pipeline,
    as_refiner,
    as_refiner_chain,
    get_refiner,
    refine_candidates,
    register_refiner,
    registered_refiners,
    unregister_refiner,
)
from repro.ncp.profile import (
    ClusterCandidate,
    NCPProfile,
    best_per_size_bucket,
    cluster_ensemble_ncp,
    flow_cluster_ensemble_ncp,
)
from repro.execution import (
    Chaos,
    ChunkExecutionError,
    ExecutorKind,
    FaultPlan,
    RetryPolicy,
    UnknownExecutorError,
    get_executor,
    register_executor,
    registered_executors,
    unregister_executor,
)
from repro.ncp.runner import NCPRunResult, run_ncp_ensemble
from repro.partition.local import LocalClusterResult, local_cluster

__all__ = [
    "ApproximateComputation",
    "BatchPushResult",
    "Chaos",
    "ChunkExecutionError",
    "ClusterCandidate",
    "ConvergenceError",
    "DiffusionGrid",
    "DisconnectedGraphError",
    "DynamicsKind",
    "EmptyGraphError",
    "ExecutorKind",
    "FaultPlan",
    "Figure1Result",
    "FlowError",
    "FlowImprove",
    "Graph",
    "GraphError",
    "HeatKernel",
    "InvalidParameterError",
    "LazyWalk",
    "LocalClusterResult",
    "MOV",
    "MQI",
    "NCPProfile",
    "NCPRunResult",
    "PPR",
    "PartitionError",
    "Pipeline",
    "RefinementStep",
    "RefinementTrace",
    "RefinerKind",
    "ReproError",
    "RetryPolicy",
    "UnknownDynamicsError",
    "UnknownExecutorError",
    "UnknownGraphError",
    "UnknownRefinerError",
    "apply_refiners",
    "as_diffusion_grid",
    "as_pipeline",
    "as_refiner",
    "as_refiner_chain",
    "batch_ppr_push",
    "best_per_size_bucket",
    "canonical_dynamics",
    "cluster_ensemble_ncp",
    "figure1_comparison",
    "flow_cluster_ensemble_ncp",
    "from_edges",
    "get_dynamics",
    "get_executor",
    "get_refiner",
    "load_any_graph",
    "load_graph",
    "local_cluster",
    "ppr_push_frontier",
    "refine_candidates",
    "register_dynamics",
    "register_executor",
    "register_refiner",
    "registered_dynamics",
    "registered_executors",
    "registered_refiners",
    "run_multidynamics_ncp",
    "run_ncp_ensemble",
    "suite_names",
    "unregister_dynamics",
    "unregister_executor",
    "unregister_refiner",
    "verify_paper_theorem",
]
