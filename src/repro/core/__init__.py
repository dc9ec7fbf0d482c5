"""Core helpers: experiment records and plain-text reporting.

The implicit-regularization API (``canonical_dynamics``,
``get_dynamics``, ``DynamicsKind``) lives in :mod:`repro.dynamics` and
:mod:`repro.api`.
"""

from repro.core.experiments import (
    ExperimentRecord,
    Stopwatch,
    run_multidynamics_ncp,
)
from repro.core.reporting import (
    format_comparison_verdict,
    format_markdown_table,
    format_table,
    format_value,
    jsonable,
)

__all__ = [
    "ExperimentRecord",
    "Stopwatch",
    "format_comparison_verdict",
    "format_markdown_table",
    "format_table",
    "format_value",
    "jsonable",
    "run_multidynamics_ncp",
]
