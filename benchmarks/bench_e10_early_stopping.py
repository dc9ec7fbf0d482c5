"""E10 — Sections 2.3 / 3.1: early stopping & truncation as regularizers.

Three measurements:

1. the power-method regularization path: Rayleigh quotient (quality) vs
   iteration count, with the early iterates measurably *more robust to
   input noise* than the converged eigenvector on a graph with a small
   spectral gap (the operational definition of regularization in §2.3);
2. the push-truncation path: ε controls a provable accuracy/locality
   tradeoff (error <= ε at every point);
3. ablation (DESIGN.md §5): Lanczos reaches a given Rayleigh accuracy in
   far fewer matvecs than the power method — the practical reason footnote
   15's "more sophisticated variants" exist.
"""

from __future__ import annotations

from repro.core import format_comparison_verdict, format_table
from repro.datasets import load_graph
from repro.graph.generators import barbell_graph
from repro.graph.matrices import normalized_laplacian, trivial_eigenvector
from repro.linalg.fiedler import fiedler_value
from repro.linalg.lanczos import lanczos_extreme_eigenpairs
from repro.linalg.power import power_method
from repro.regularization import (
    early_stopping_path,
    noise_sensitivity,
    truncation_path,
)


def stopping_and_sensitivity():
    graph = barbell_graph(10)
    points = early_stopping_path(graph, 400, seed=3)
    picked = [points[i] for i in (0, 9, 49, 399)]

    def estimator_at(iterations):
        def run(g, _rng):
            laplacian = normalized_laplacian(g)
            trivial = trivial_eigenvector(g)
            result = power_method(
                lambda x: 2 * x - laplacian @ x, g.num_nodes,
                deflate=[trivial], tol=1e-300,
                max_iterations=iterations, seed=0,
                raise_on_failure=False,
            )
            return result.eigenvector
        return run

    sensitivity_rows = []
    for iterations in (3, 30, 3000):
        deviation, _ = noise_sensitivity(
            graph, estimator_at(iterations), flip_probability=0.05,
            num_trials=8, seed=4,
        )
        sensitivity_rows.append([iterations, deviation])
    return picked, sensitivity_rows


def truncation():
    graph = load_graph("whiskered", seed=0)
    return truncation_path(
        graph, [0], [1e-2, 1e-3, 1e-4, 1e-5], alpha=0.15
    )


def lanczos_ablation():
    graph = load_graph("grid", seed=0)
    lam2 = fiedler_value(graph, method="exact")
    laplacian = normalized_laplacian(graph)
    trivial = trivial_eigenvector(graph)
    power = power_method(
        lambda x: 2 * x - laplacian @ x, graph.num_nodes,
        deflate=[trivial], tol=1e-10, max_iterations=200_000, seed=0,
    )
    values, _ = lanczos_extreme_eigenpairs(
        laplacian, graph.num_nodes, 1, which="smallest",
        num_steps=60, deflate=[trivial], seed=0,
    )
    return lam2, power.iterations, abs(2 - power.eigenvalue - lam2), 60, abs(
        values[0] - lam2
    )


def test_e10_early_stopping():
    (picked, sens_rows), trunc_points, ablation = (
        stopping_and_sensitivity(), truncation(), lanczos_ablation()
    )
    print()
    print(format_table(
        ["iteration", "Rayleigh quotient", "alignment with exact v2"],
        [[p.iteration, p.rayleigh, p.alignment] for p in picked],
        title="E10.1: power-method regularization path (barbell)",
    ))
    print()
    print(format_table(
        ["iterations", "output deviation under 5% edge noise"],
        sens_rows,
        title="E10.2: noise sensitivity vs stopping time (lower = more "
              "regularized)",
    ))
    print()
    print(format_table(
        ["epsilon", "support", "work", "error (<= eps)"],
        [[p.epsilon, p.support_size, p.work, p.error]
         for p in trunc_points],
        title="E10.3: push truncation path",
    ))
    lam2, p_iters, p_err, l_steps, l_err = ablation
    print()
    print(format_table(
        ["method", "matvecs", "|lambda2 error|"],
        [["power method", p_iters, p_err], ["Lanczos", l_steps, l_err]],
        title="E10.4 ablation: Lanczos vs power method for lambda2 (grid)",
    ))

    quality_improves = picked[-1].rayleigh < picked[0].rayleigh
    robustness = sens_rows[0][1] <= sens_rows[-1][1] + 0.25
    truncation_ok = all(p.error <= p.epsilon + 1e-12 for p in trunc_points)
    lanczos_wins = l_steps < p_iters and l_err < 1e-6
    print()
    print(format_comparison_verdict(
        "early iterates trade quality for robustness", True,
        quality_improves and robustness,
    ))
    print(format_comparison_verdict(
        "push truncation error provably <= eps on every row", True,
        truncation_ok,
    ))
    print(format_comparison_verdict(
        "Lanczos needs far fewer matvecs than power iteration", True,
        lanczos_wins,
    ))
    assert quality_improves and robustness and truncation_ok and lanczos_wins
