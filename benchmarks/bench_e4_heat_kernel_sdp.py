"""E4 — Section 3.1: Heat Kernel ≡ entropy-regularized SDP.

For a grid of times t on several graph families, verifies that the heat
kernel's density matrix is (to machine precision) the exact optimum of
Problem (5) with the generalized-entropy regularizer and η = t, and that an
independent mirror-descent solver converges to the same matrix. The same
t-grid is also pushed through the batched strongly local engine
(``batch_hk_push``), closing the loop from the SDP characterization down
to the production diffusion path: the engine's output must sit within its
own dropped-mass + Poisson-tail budget of the exact kernel the SDP
optimum certifies.
"""

from __future__ import annotations

import numpy as np

from repro.core import format_comparison_verdict, format_table
from repro.datasets import load_graph
from repro.diffusion import batch_hk_push, heat_kernel_vector
from repro.diffusion.seeds import degree_weighted_indicator_seed
from repro.regularization import verify_heat_kernel

GRAPHS = ("barbell", "roach", "grid", "planted")
TIMES = (0.25, 1.0, 4.0, 16.0)
ENGINE_EPSILON = 1e-9


def engine_grid_errors(graph):
    """Batched-engine ℓ1 error and budget per t, against the exact HK."""
    seed = degree_weighted_indicator_seed(graph, [0])
    batch = batch_hk_push(
        graph, [seed], ts=TIMES, epsilons=(ENGINE_EPSILON,)
    )
    errors = {}
    for b in range(batch.num_columns):
        t = float(batch.ts[b])
        exact = heat_kernel_vector(graph, seed, t, kind="random_walk")
        error = float(np.abs(batch.approximation[:, b] - exact).sum())
        budget = float(batch.dropped_mass[b] + batch.tail_bound[b])
        errors[t] = (error, budget)
    return errors


def run_verification():
    rows = []
    worst = 0.0
    worst_engine_excess = 0.0
    for name in GRAPHS:
        graph = load_graph(name, seed=0)
        engine_errors = engine_grid_errors(graph)
        for t in TIMES:
            report = verify_heat_kernel(
                graph, t, run_solver=(t == 1.0)
            )
            worst = max(worst, report.diffusion_vs_closed_form)
            error, budget = engine_errors[t]
            worst_engine_excess = max(
                worst_engine_excess, error - budget
            )
            rows.append(
                [
                    name,
                    t,
                    report.diffusion_vs_closed_form,
                    report.solver_vs_closed_form
                    if report.solver_vs_closed_form is not None
                    else float("nan"),
                    report.kkt_residual,
                    report.rayleigh_value,
                    error,
                ]
            )
    return rows, worst, worst_engine_excess


def test_e4_heat_kernel_equivalence():
    rows, worst, engine_excess = run_verification()
    print()
    print(
        format_table(
            ["graph", "t (= eta)", "||HK - SDP opt||", "||solver - opt||",
             "KKT residual", "Tr(LX)", "engine l1 err"],
            rows,
            title="E4: Heat Kernel == entropy-regularized SDP (Problem 5)",
        )
    )
    matches = worst < 1e-8
    print(f"\nworst diffusion-vs-SDP gap: {worst:.2e}")
    print(f"worst engine error beyond its budget: {engine_excess:.2e}")
    print(format_comparison_verdict(
        "Heat Kernel exactly solves the entropy-regularized SDP",
        True, matches,
    ))
    assert matches
    assert engine_excess < 1e-7, (
        "batch_hk_push exceeded its dropped-mass + tail error budget"
    )
