"""E2 — Figure 1(b): niceness as average shortest-path length.

Regenerates the paper's Figure 1(b). The paper plots every cluster either
method finds (a scatter cloud) and observes that the spectral cloud sits
lower: spectral clusters are more compact. We reproduce that reading with
per-bucket *cloud medians* — the median ASPL over sampled candidates of
each ensemble — which is the statistic the visual claim is about.

The timed region is this panel's own work: the niceness measurements on
the sampled clouds.
"""

from __future__ import annotations

import numpy as np
from conftest import FOCUS_MIN_SIZE, get_figure1

from repro.core import format_comparison_verdict, format_table
from repro.ncp.compare import bucket_cloud_niceness


def test_fig1b_average_path_length(shared_cache, atp_graph):
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
        if np.isfinite(c.spectral_aspl) and np.isfinite(c.flow_aspl)
    ]
    print()
    print(
        format_table(
            ["size bucket", "aspl spectral (median)", "aspl flow (median)",
             "nicer"],
            [
                [
                    f"[{c.size_low:.0f}, {c.size_high:.0f})",
                    c.spectral_aspl,
                    c.flow_aspl,
                    "spectral" if c.spectral_aspl <= c.flow_aspl else "flow",
                ]
                for c in joint
            ],
            title=(
                "Figure 1(b): cloud-median average shortest-path length "
                "(lower = nicer)"
            ),
        )
    )
    focus = [c for c in joint if c.size_high > FOCUS_MIN_SIZE]
    wins = sum(
        1 for c in focus if c.spectral_aspl <= c.flow_aspl
    ) / max(len(focus), 1)
    print(f"\nspectral wins: {wins:.0%} of focus-range buckets")
    matches = wins > 0.5
    print(format_comparison_verdict(
        "Figure 1(b): spectral clusters are more compact (lower ASPL)",
        True, matches,
    ))
    assert matches, "spectral did not dominate the path-length niceness"
