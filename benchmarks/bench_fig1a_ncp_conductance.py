"""E1 — Figure 1(a): size-resolved conductance, spectral vs flow.

Regenerates the paper's Figure 1(a) on the synthetic AtP-DBLP stand-in:
for each cluster-size bucket, the best conductance found by the spectral
ensemble (ACL push + sweep; the paper's blue "LocalSpectral") and by the
flow ensemble (multilevel bisection + MQI; the paper's red "Metis+MQI").

Paper's claim: "the flow-based procedure is unambiguously better than the
spectral procedure at finding good-conductance clusters."
"""

from __future__ import annotations

from conftest import focus_buckets, get_figure1

from repro.core import format_comparison_verdict, format_table


def test_fig1a_conductance_profile(shared_cache, atp_graph):
    result = get_figure1(shared_cache, atp_graph)
    rows = [
        [
            f"[{b.size_low:.0f}, {b.size_high:.0f})",
            b.spectral_phi,
            b.flow_phi,
            "flow" if b.flow_phi <= b.spectral_phi else "spectral",
        ]
        for b in result.joint_buckets()
    ]
    print()
    print(
        format_table(
            ["size bucket", "phi spectral", "phi flow", "winner"],
            rows,
            title=(
                "Figure 1(a): best conductance per size bucket "
                "(lower = better)"
            ),
        )
    )
    overall = result.flow_wins_conductance()
    focus = focus_buckets(result)
    focus_wins = sum(
        1 for b in focus if b.flow_phi <= b.spectral_phi
    ) / max(len(focus), 1)
    print(f"\nflow wins: {overall:.0%} of all joint buckets, "
          f"{focus_wins:.0%} of focus-range buckets")
    matches = focus_wins > 0.5
    print(format_comparison_verdict(
        "Figure 1(a): flow (Metis+MQI) finds better-conductance clusters",
        True, matches,
    ))
    assert matches, "flow did not dominate the conductance profile"
