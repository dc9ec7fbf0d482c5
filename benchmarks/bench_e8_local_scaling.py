"""E8 — Section 3.3: push work is output-local, independent of graph size.

"By design these procedures are extremely fast — the running time depends
on the size of the output and is independent even of the number of nodes
in the graph."

Two sweeps on whiskered expanders with a fixed whisker seed:

* graph size n swept over a factor of 16 at fixed (α, ε) — the push work
  and touched-set size must stay (nearly) flat;
* ε swept at fixed n — work must scale like O(1/ε) (the theory bound
  ||s||₁/(ε α) pushes), confirming the output-size dependence.
"""

from __future__ import annotations

from repro.core import format_comparison_verdict, format_table
from repro.diffusion import approximate_ppr_push, indicator_seed
from repro.graph.random_generators import whiskered_expander


def n_sweep():
    rows = []
    for core in (128, 512, 2048):
        graph = whiskered_expander(core, 4, 10, 8, seed=3)
        seed_vector = indicator_seed(graph, [core + 2])
        result = approximate_ppr_push(
            graph, seed_vector, alpha=0.1, epsilon=1e-4
        )
        rows.append(
            [graph.num_nodes, result.work, result.touched.size,
             result.num_pushes]
        )
    return rows


def epsilon_sweep():
    graph = whiskered_expander(512, 4, 10, 8, seed=3)
    seed_vector = indicator_seed(graph, [514])
    rows = []
    for epsilon in (1e-2, 1e-3, 1e-4, 1e-5):
        result = approximate_ppr_push(
            graph, seed_vector, alpha=0.1, epsilon=epsilon
        )
        rows.append(
            [epsilon, result.work, result.touched.size,
             result.work * epsilon]
        )
    return rows


def test_e8_strong_locality():
    n_rows, eps_rows = n_sweep(), epsilon_sweep()
    print()
    print(format_table(
        ["n", "edge work", "touched nodes", "pushes"],
        n_rows,
        title="E8.1: n swept 16x at fixed (alpha, eps) — work must be flat",
    ))
    print()
    print(format_table(
        ["epsilon", "edge work", "touched nodes", "work * eps"],
        eps_rows,
        title="E8.2: eps sweep at fixed n — work scales like O(1/eps)",
    ))
    works = [r[1] for r in n_rows]
    ns = [r[0] for r in n_rows]
    claim_flat = works[-1] < 3 * works[0] and ns[-1] > 10 * ns[0]
    eps_works = [r[1] for r in eps_rows]
    claim_eps = eps_works[-1] > 5 * eps_works[0]
    print()
    print(format_comparison_verdict(
        "push work independent of n (16x larger graph, <3x work)",
        True, claim_flat,
    ))
    print(format_comparison_verdict(
        "push work grows as eps shrinks (output-size dependence)",
        True, claim_eps,
    ))
    assert claim_flat and claim_eps
