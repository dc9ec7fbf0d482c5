"""E6 — Section 3.1: Lazy Random Walk ≡ matrix-p-norm-regularized SDP.

For a grid of step counts k (and holding probabilities α ≥ 1/2, which keep
the symmetrized walk PSD), verifies the third row of the correspondence:
``W_α^k``'s density matrix exactly optimizes Problem (5) with
G = (1/p) Tr(X^p) and p = 1 + 1/k.
"""

from __future__ import annotations

from repro.core import format_comparison_verdict, format_table
from repro.datasets import load_graph
from repro.regularization import verify_lazy_walk

GRAPHS = ("barbell", "roach", "planted")
SETTINGS = ((0.5, 1), (0.6, 3), (0.6, 10), (0.9, 30))


def run_verification():
    rows = []
    worst = 0.0
    for name in GRAPHS:
        graph = load_graph(name, seed=0)
        for alpha, k in SETTINGS:
            report = verify_lazy_walk(
                graph, alpha, k, run_solver=(k == 3)
            )
            worst = max(worst, report.diffusion_vs_closed_form)
            rows.append(
                [
                    name,
                    alpha,
                    k,
                    1.0 + 1.0 / k,
                    report.diffusion_vs_closed_form,
                    report.kkt_residual,
                ]
            )
    return rows, worst


def test_e6_lazy_walk_equivalence():
    rows, worst = run_verification()
    print()
    print(
        format_table(
            ["graph", "alpha", "k steps", "p = 1 + 1/k",
             "||W^k - SDP opt||", "KKT residual"],
            rows,
            title="E6: Lazy Walk == p-norm-regularized SDP (Problem 5)",
        )
    )
    matches = worst < 1e-7
    print(f"\nworst diffusion-vs-SDP gap: {worst:.2e}")
    print(format_comparison_verdict(
        "k-step lazy walk exactly solves the p-norm-regularized SDP",
        True, matches,
    ))
    assert matches
