"""repro — Approximate Computation and Implicit Regularization.

A from-scratch reproduction of Michael W. Mahoney's PODS 2012 paper
"Approximate Computation and Implicit Regularization for Very Large-scale
Data Analysis" (arXiv:1203.0786).

Subpackages
-----------
``repro.api``
    The one-stop typed facade: specs, grids, registry, ensembles, local
    clustering, verification.
``repro.cli``
    The ``python -m repro`` workbench: datasets / ncp / cluster / lint
    subcommands over the facade; every run that produces files writes
    a JSON run manifest.
``repro.dynamics``
    The unified dynamics registry: ``PPR`` / ``HeatKernel`` / ``LazyWalk``
    specs, ``DiffusionGrid``, ``DynamicsKind`` entries, alias table.
``repro.refine``
    The unified refiner registry: ``MQI`` / ``FlowImprove`` / ``MOV``
    specs, ``Pipeline`` workloads, ``RefinerKind`` entries, alias table.
``repro.backends``
    The kernel-backend registry: ``EngineBackend`` entries behind the
    canonical ``numpy`` / ``scalar`` names, alias table.
``repro.execution``
    The executor registry: ``ExecutorKind`` entries behind the canonical
    ``serial`` / ``process`` / ``chaos`` names, retry + straggler
    re-dispatch driver, deterministic fault injection, resume support.
``repro.graph``
    CSR graph substrate, matrices, generators, I/O.
``repro.linalg``
    Power method, Lanczos, iterative solvers, expm action, sketching.
``repro.diffusion``
    The three canonical dynamics (heat kernel, PageRank, lazy walk) and
    their strongly local approximations (ACL push, Nibble, HK push).
``repro.regularization``
    The f + λg framework, the spectral SDP, the three regularizers with
    closed-form optima, solvers, and the equivalence verification harness.
``repro.partition``
    Conductance metrics, sweep cuts, spectral + multilevel + MQI + local +
    MOV partitioners, max-flow.
``repro.ncp``
    Network community profiles and the Figure 1 engine.
``repro.datasets``
    Synthetic AtP-DBLP stand-in and the named graph suite.
``repro.core``
    The public implicit-regularization API and reporting.

Quickstart
----------
>>> from repro.datasets import load_graph
>>> from repro.api import verify_paper_theorem
>>> graph = load_graph("planted")
>>> reports = verify_paper_theorem(graph)   # Section 3.1, numerically
>>> all(r.diffusion_vs_closed_form < 1e-8 for r in reports)
True
"""

from repro import backends, core, datasets, diffusion, dynamics, graph
from repro import execution
from repro import linalg, ncp, partition, refine, regularization
from repro import api
from repro.backends import (
    EngineBackend,
    UnknownBackendError,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend_name,
    unregister_backend,
)
from repro.core.framework import canonical_dynamics, verify_paper_theorem
from repro.datasets.suite import UnknownGraphError, load_any_graph
from repro.diffusion.engine import (
    BatchPushResult,
    batch_ppr_push,
    ppr_push_frontier,
)
from repro.dynamics import (
    DiffusionGrid,
    DynamicsKind,
    HeatKernel,
    LazyWalk,
    PPR,
    UnknownDynamicsError,
    get_dynamics,
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
from repro.exceptions import (
    ConvergenceError,
    DisconnectedGraphError,
    EmptyGraphError,
    ExperimentError,
    FlowError,
    GraphError,
    InvalidParameterError,
    PartitionError,
    ReproError,
)
from repro.graph.build import from_edges
from repro.graph.graph import Graph
from repro.ncp.profile import cluster_ensemble_ncp
from repro.ncp.runner import run_ncp_ensemble
from repro.partition.local import local_cluster
from repro.refine import (
    FlowImprove,
    MOV,
    MQI,
    Pipeline,
    UnknownRefinerError,
    get_refiner,
)

__version__ = "2.0.0"


def __getattr__(name):
    # ``repro.cli`` (argparse wiring and the lint analyzers) is imported on
    # first access, so library users and NCP runs never pay for it.
    if name == "cli":
        import importlib

        return importlib.import_module("repro.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BatchPushResult",
    "Chaos",
    "ChunkExecutionError",
    "ConvergenceError",
    "DiffusionGrid",
    "DisconnectedGraphError",
    "DynamicsKind",
    "EmptyGraphError",
    "EngineBackend",
    "ExecutorKind",
    "ExperimentError",
    "FaultPlan",
    "FlowError",
    "FlowImprove",
    "Graph",
    "GraphError",
    "HeatKernel",
    "InvalidParameterError",
    "LazyWalk",
    "MOV",
    "MQI",
    "PPR",
    "PartitionError",
    "Pipeline",
    "ReproError",
    "RetryPolicy",
    "UnknownBackendError",
    "UnknownDynamicsError",
    "UnknownExecutorError",
    "UnknownGraphError",
    "UnknownRefinerError",
    "__version__",
    "api",
    "backends",
    "batch_ppr_push",
    "canonical_dynamics",
    "cli",
    "cluster_ensemble_ncp",
    "core",
    "datasets",
    "diffusion",
    "dynamics",
    "execution",
    "from_edges",
    "get_backend",
    "get_dynamics",
    "get_executor",
    "get_refiner",
    "graph",
    "linalg",
    "load_any_graph",
    "local_cluster",
    "ncp",
    "partition",
    "ppr_push_frontier",
    "refine",
    "register_backend",
    "register_executor",
    "registered_backends",
    "registered_executors",
    "regularization",
    "resolve_backend_name",
    "run_ncp_ensemble",
    "unregister_backend",
    "unregister_executor",
    "verify_paper_theorem",
]
