"""Synthetic datasets: the AtP-DBLP stand-in and the named graph suites.

Two tiers: the reference suite (:mod:`repro.datasets.suite`, hundreds of
nodes, built eagerly everywhere) and the scale tier
(:mod:`repro.datasets.scale`, R-MAT / LFR-style generators reaching
millions of edges, built only on explicit request).
"""

from repro.datasets.scale import (
    SCALE_SUITE,
    ScaleGraphSpec,
    lfr_graph,
    rmat_graph,
)
from repro.datasets.suite import (
    UnknownGraphError,
    describe,
    load_any_graph,
    load_graph,
    suite_names,
)
from repro.datasets.synthetic_dblp import (
    AtPDataset,
    attach_whisker_chains,
    synthetic_atp_dblp,
)

__all__ = [
    "AtPDataset",
    "SCALE_SUITE",
    "ScaleGraphSpec",
    "UnknownGraphError",
    "attach_whisker_chains",
    "describe",
    "lfr_graph",
    "load_any_graph",
    "load_graph",
    "rmat_graph",
    "suite_names",
    "synthetic_atp_dblp",
]
