"""E3 — Figure 1(c): niceness as external/internal conductance ratio.

Regenerates the paper's Figure 1(c) with the same cloud-median reading as
panel (b): for each size bucket, the median over sampled ensemble members
of (external conductance) / (internal conductance). The paper's claim:
the spectral cloud sits lower — flow's aggressively optimized cuts tend to
be internally stringier than the diffusion-grown spectral clusters.
"""

from __future__ import annotations

import numpy as np
from conftest import FOCUS_MIN_SIZE, get_figure1

from repro.core import format_comparison_verdict, format_table
from repro.ncp.compare import bucket_cloud_niceness


def test_fig1c_conductance_ratio(shared_cache, atp_graph):
    result = get_figure1(shared_cache, atp_graph)

    def measure_panel():
        if "clouds" not in shared_cache:
            shared_cache["clouds"] = bucket_cloud_niceness(
                atp_graph, result, samples_per_bucket=8, seed=0
            )
        return shared_cache["clouds"]

    clouds = measure_panel()
    joint = [
        c for c in clouds
        if np.isfinite(c.spectral_ratio) and np.isfinite(c.flow_ratio)
    ]
    print()
    print(
        format_table(
            ["size bucket", "ratio spectral (median)", "ratio flow (median)",
             "nicer"],
            [
                [
                    f"[{c.size_low:.0f}, {c.size_high:.0f})",
                    c.spectral_ratio,
                    c.flow_ratio,
                    "spectral"
                    if c.spectral_ratio <= c.flow_ratio
                    else "flow",
                ]
                for c in joint
            ],
            title=(
                "Figure 1(c): cloud-median external/internal conductance "
                "ratio (lower = nicer)"
            ),
        )
    )
    focus = [c for c in joint if c.size_high > FOCUS_MIN_SIZE]
    wins = sum(
        1 for c in focus if c.spectral_ratio <= c.flow_ratio
    ) / max(len(focus), 1)
    print(f"\nspectral wins: {wins:.0%} of focus-range buckets")
    matches = wins > 0.5
    print(format_comparison_verdict(
        "Figure 1(c): spectral clusters have lower external/internal ratio",
        True, matches,
    ))
    assert matches, "spectral did not win the conductance-ratio niceness"
