"""Core framework: the implicit-regularization API, experiment records,
and plain-text reporting."""

from repro.core.experiments import (
    ExperimentRecord,
    Stopwatch,
    run_multidynamics_ncp,
)
from repro.core.framework import (
    ApproximateComputation,
    DynamicsKind,
    UnknownDynamicsError,
    canonical_dynamics,
    get_dynamics,
    registered_dynamics,
    verify_paper_theorem,
)
from repro.core.reporting import (
    format_comparison_verdict,
    format_markdown_table,
    format_table,
    format_value,
    jsonable,
)

__all__ = [
    "ApproximateComputation",
    "DynamicsKind",
    "ExperimentRecord",
    "Stopwatch",
    "UnknownDynamicsError",
    "canonical_dynamics",
    "format_comparison_verdict",
    "format_markdown_table",
    "format_table",
    "format_value",
    "get_dynamics",
    "jsonable",
    "registered_dynamics",
    "run_multidynamics_ncp",
    "verify_paper_theorem",
]
