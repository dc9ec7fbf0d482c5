"""repro — Approximate Computation and Implicit Regularization.

A from-scratch reproduction of Michael W. Mahoney's PODS 2012 paper
"Approximate Computation and Implicit Regularization for Very Large-scale
Data Analysis" (arXiv:1203.0786).

Subpackages
-----------
``repro.api``
    The one public facade: graphs, specs, grids, lookups, ensembles,
    local clustering, verification and the error types. Its ``__all__``
    is the package's only hand-written export list; ``repro`` re-exports
    every name in it, so ``repro.PPR is repro.api.PPR``.
``repro.cli``
    The ``python -m repro`` workbench: datasets / ncp / cluster / lint
    subcommands over the facade; every run that produces files writes
    a JSON run manifest.
``repro.dynamics``
    The three dynamics: ``PPR`` / ``HeatKernel`` / ``LazyWalk`` specs,
    ``DiffusionGrid``, and the fixed ``DYNAMICS`` tuple of
    ``DynamicsKind`` records with their aliases.
``repro.refine``
    The refiners: ``MQI`` / ``FlowImprove`` / ``MOV`` specs, ``Pipeline``
    workloads, and the fixed ``REFINERS`` tuple of ``RefinerKind``
    records with their aliases.
``repro.execution``
    The fixed ``EXECUTORS`` tuple of ``ExecutorKind`` records
    (``serial`` / ``process`` / ``chaos``), retry + straggler
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
    Experiment records and plain-text reporting.

Quickstart
----------
>>> from repro.datasets import load_graph
>>> from repro.regularization import verify_all
>>> graph = load_graph("planted")
>>> reports = verify_all(graph)   # Section 3.1, numerically
>>> all(r.diffusion_vs_closed_form < 1e-8 for r in reports)
True
"""

from repro import core, datasets, diffusion, dynamics, graph
from repro import execution
from repro import linalg, ncp, partition, refine, regularization
from repro import api
from repro.api import *  # noqa: F401,F403 -- the facade, re-exported whole

__version__ = "6.0.0"


def __getattr__(name):
    # ``repro.cli`` (argparse wiring and the lint analyzers) is imported on
    # first access, so library users and NCP runs never pay for it.
    if name == "cli":
        import importlib

        return importlib.import_module("repro.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    *api.__all__,
    "__version__",
    "api",
    "cli",
    "core",
    "datasets",
    "diffusion",
    "dynamics",
    "execution",
    "graph",
    "linalg",
    "ncp",
    "partition",
    "refine",
    "regularization",
]
