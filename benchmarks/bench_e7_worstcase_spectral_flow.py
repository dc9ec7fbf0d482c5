"""E7 — Section 3.2: complementary worst cases of spectral and flow.

Three claims from the paper, measured over size sweeps:

1. On "long stringy" graphs (Guattery–Miller roach), the classical spectral
   bisection pays an unboundedly growing factor over the optimal cut — the
   quadratic Cheeger slack "is not an artifact of the analysis" [21].
2. On cycles (the canonical stringy family), the sweep cut *saturates* the
   sqrt side of Cheeger: φ_sweep ≈ sqrt(2 λ2) up to a constant, i.e.
   φ² / λ2 stays Θ(1) while φ / λ2 diverges.
3. On constant-degree expanders, spectral is within a constant of optimal
   (λ2 is Θ(1), and the certificate sandwich is tight to a constant), while
   the flow pipeline finds no better cut — "spectral methods are better for
   expanders ... the quadratic of a constant is a constant" (footnote 23).
"""

from __future__ import annotations

from repro.core import format_comparison_verdict, format_table
from repro.graph.generators import cycle_graph, roach_graph
from repro.graph.random_generators import random_regular_graph
from repro.linalg.fiedler import fiedler_value
from repro.partition.metrics import conductance
from repro.partition.multilevel import multilevel_bisection
from repro.partition.spectral import spectral_bisection_median, spectral_cut


def roach_sweep():
    rows = []
    for k in (8, 16, 32):
        graph = roach_graph(k, k)
        _, phi_bisect = spectral_bisection_median(
            graph, laplacian="combinatorial"
        )
        length = 2 * k
        antennae = list(range(k, length)) + list(
            range(length + k, 2 * length)
        )
        phi_opt = conductance(graph, antennae)
        rows.append([f"roach({k},{k})", phi_bisect, phi_opt,
                     phi_bisect / phi_opt])
    return rows


def cycle_sweep():
    rows = []
    for n in (32, 128, 512):
        graph = cycle_graph(n)
        lam2 = fiedler_value(graph, method="exact")
        result = spectral_cut(graph, method="exact")
        rows.append(
            [f"cycle({n})", lam2, result.conductance,
             result.conductance / lam2,
             result.conductance**2 / lam2]
        )
    return rows


def expander_sweep():
    rows = []
    for n in (64, 256, 1024):
        graph = random_regular_graph(n, 4, seed=5)
        lam2 = fiedler_value(graph, method="lanczos", seed=0)
        spectral = spectral_cut(graph, method="lanczos", seed=0)
        flow = multilevel_bisection(graph, seed=0)
        rows.append(
            [f"4-regular({n})", lam2, spectral.conductance,
             flow.conductance, spectral.conductance / lam2]
        )
    return rows


def test_e7_worst_cases():
    roach_rows, cycle_rows, expander_rows = (
        roach_sweep(), cycle_sweep(), expander_sweep()
    )
    print()
    print(format_table(
        ["graph", "phi spectral bisection", "phi optimal", "ratio"],
        roach_rows,
        title="E7.1: Guattery-Miller roach (ratio must GROW with size)",
    ))
    print()
    print(format_table(
        ["graph", "lambda2", "phi sweep", "phi/lambda2 (diverges)",
         "phi^2/lambda2 (bounded)"],
        cycle_rows,
        title="E7.2: cycles saturate the quadratic Cheeger bound",
    ))
    print()
    print(format_table(
        ["graph", "lambda2", "phi spectral", "phi flow (Metis-like)",
         "phi/lambda2 (bounded)"],
        expander_rows,
        title="E7.3: expanders — spectral within a constant; no good cuts",
    ))

    roach_ratios = [r[3] for r in roach_rows]
    claim1 = roach_ratios[0] < roach_ratios[-1] and roach_ratios[-1] > 8
    linear_ratios = [r[3] for r in cycle_rows]
    quadratic_ratios = [r[4] for r in cycle_rows]
    claim2 = (
        linear_ratios[-1] > 3 * linear_ratios[0]
        and max(quadratic_ratios) < 8 * min(quadratic_ratios)
    )
    expander_lin = [r[4] for r in expander_rows]
    claim3 = max(expander_lin) < 10 and all(r[1] > 0.05 for r in expander_rows)
    print()
    print(format_comparison_verdict(
        "roach: spectral bisection/optimal ratio grows without bound",
        True, claim1,
    ))
    print(format_comparison_verdict(
        "cycles: sweep saturates sqrt Cheeger (phi^2/lambda2 = Theta(1))",
        True, claim2,
    ))
    print(format_comparison_verdict(
        "expanders: spectral within a constant of lambda2; no good cuts",
        True, claim3,
    ))
    assert claim1 and claim2 and claim3
