"""E5 — Section 3.1: PageRank ≡ log-det-regularized SDP.

For a grid of teleport parameters γ on several graph families, verifies the
second row of the paper's correspondence: the PageRank resolvent's density
matrix exactly optimizes Problem (5) with G = −log det, via the parameter
map μ = γ/(1−γ), η = Σ 1/(λ_i + μ).
"""

from __future__ import annotations

from repro.core import format_comparison_verdict, format_table
from repro.datasets import load_graph
from repro.regularization import verify_pagerank

GRAPHS = ("barbell", "lollipop", "grid", "planted")
GAMMAS = (0.05, 0.2, 0.5, 0.9)


def run_verification():
    rows = []
    worst = 0.0
    for name in GRAPHS:
        graph = load_graph(name, seed=0)
        for gamma in GAMMAS:
            report = verify_pagerank(
                graph, gamma, run_solver=(gamma == 0.2)
            )
            worst = max(worst, report.diffusion_vs_closed_form)
            rows.append(
                [
                    name,
                    gamma,
                    report.eta,
                    report.diffusion_vs_closed_form,
                    report.kkt_residual,
                    report.rayleigh_value,
                ]
            )
    return rows, worst


def test_e5_pagerank_equivalence():
    rows, worst = run_verification()
    print()
    print(
        format_table(
            ["graph", "gamma", "eta(gamma)", "||PR - SDP opt||",
             "KKT residual", "Tr(LX)"],
            rows,
            title="E5: PageRank == log-det-regularized SDP (Problem 5)",
        )
    )
    matches = worst < 1e-8
    print(f"\nworst diffusion-vs-SDP gap: {worst:.2e}")
    print(format_comparison_verdict(
        "PageRank exactly solves the log-det-regularized SDP",
        True, matches,
    ))
    assert matches
