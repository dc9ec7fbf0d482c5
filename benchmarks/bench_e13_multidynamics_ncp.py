"""E13 — multi-dynamics NCP profiles through the sharded runner.

Section 3.1 names three canonical diffusion dynamics (heat kernel,
PageRank, truncated lazy walk) and Section 3.3 their strongly local
approximations; Figure 1's NCP methodology applies to any of them. E13
runs all three through the batched engines and the process-parallel
runner on the AtP-DBLP stand-in and checks that each yields a
size-resolved profile — i.e., the multi-dynamics engine is a drop-in
candidate generator for the Figure 1 pipeline, not just the PPR path.
"""

from __future__ import annotations

import numpy as np

from conftest import bench_workers

from repro.api import HeatKernel, LazyWalk, PPR
from repro.core import (
    format_comparison_verdict,
    format_table,
    run_multidynamics_ncp,
)


def test_e13_multidynamics_ncp(atp_graph):
    record, profiles = run_multidynamics_ncp(
        atp_graph,
        dynamics=(PPR(), HeatKernel(), LazyWalk()),
        num_seeds=12,
        seed=11,
        num_workers=bench_workers(),
    )
    rows = []
    for name, profile in profiles.items():
        finite = np.isfinite(profile.best_conductance)
        rows.append([
            name,
            record.details[name]["num_candidates"],
            int(finite.sum()),
            f"{np.nanmin(profile.best_conductance):.4f}",
        ])
    print()
    print(format_table(
        ["dynamics", "candidates", "nonempty buckets", "best phi"],
        rows,
        title="E13: NCP profiles for all three canonical dynamics",
    ))
    print(f"\n{record.observed}")
    print(format_comparison_verdict(
        "every canonical dynamics produces an NCP profile via the "
        "batched engines",
        True, record.shape_matches,
    ))
    assert record.shape_matches
