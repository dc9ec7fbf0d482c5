"""E12 — frontier-batched engine vs scalar push: throughput on the suite.

Section 3.3's strong-locality claim makes push *asymptotically* cheap; E12
measures whether the implementation lets the hardware see that. The scalar
deque loop pays Python interpreter overhead per pushed edge, while the
frontier-batched engine (``repro.diffusion.engine``) pushes an entire
seed x alpha x epsilon grid through vectorized CSR sweeps. Same entrywise
guarantee, same work accounting — the only thing that changes is
pushes/second.

The reference workload is the synthetic AtP-DBLP stand-in (the Figure 1
graph); the rest of the suite shows the speedup is not a quirk of one
topology.
"""

from __future__ import annotations

import time

import numpy as np

from repro.api import HeatKernel, LazyWalk, PPR
from repro.core import format_comparison_verdict, format_table
from repro.datasets import load_graph
from repro.diffusion import approximate_ppr_push, batch_ppr_push
from repro.diffusion.seeds import degree_weighted_indicator_seed

ALPHAS = (0.05, 0.15)
EPSILONS = (1e-3, 1e-4)
HK_TS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
WALK_STEPS = 30
NUM_SEEDS = 10
REFERENCE = "atp"
GRAPHS = ("atp", "whiskered", "expander", "planted")

# The registry-driven multi-dynamics workload (E12b): one grid spec per
# canonical dynamics, timed through the *same* spec.iter_columns entry
# point the NCP pipeline uses, batched engine vs scalar parity oracle.
DYNAMICS_SPECS = (
    PPR(alpha=ALPHAS),
    HeatKernel(t=HK_TS),
    LazyWalk(steps=WALK_STEPS),
)


def seed_vectors(graph, num_seeds, rng):
    nodes = rng.choice(graph.num_nodes, size=num_seeds, replace=False)
    return [
        degree_weighted_indicator_seed(graph, [int(u)]) for u in nodes
    ]


def time_scalar(graph, seeds):
    start = time.perf_counter()
    pushes = 0
    for vector in seeds:
        for alpha in ALPHAS:
            for epsilon in EPSILONS:
                result = approximate_ppr_push(
                    graph, vector, alpha=alpha, epsilon=epsilon
                )
                pushes += result.num_pushes
    return time.perf_counter() - start, pushes


def time_batched(graph, seeds):
    start = time.perf_counter()
    batch = batch_ppr_push(graph, seeds, alphas=ALPHAS, epsilons=EPSILONS)
    return time.perf_counter() - start, int(batch.num_pushes.sum())


def time_spec_columns(graph, spec, seed_nodes, backend):
    """Drain one spec's full diffusion grid through ``iter_columns``.

    One untimed single-seed warm-up drain runs first so per-process
    one-time costs never reach the timing.
    """
    for _ in spec.iter_columns(
        graph, seed_nodes[:1], epsilons=EPSILONS, backend=backend
    ):
        pass
    start = time.perf_counter()
    for _ in spec.iter_columns(
        graph, seed_nodes, epsilons=EPSILONS, backend=backend
    ):
        pass
    return time.perf_counter() - start


def run_comparison():
    rng = np.random.default_rng(0)
    rows = []
    speedups = {}
    for name in GRAPHS:
        graph = load_graph(name)
        seeds = seed_vectors(graph, NUM_SEEDS, rng)
        scalar_seconds, scalar_pushes = time_scalar(graph, seeds)
        batched_seconds, batched_pushes = time_batched(graph, seeds)
        speedups[name] = scalar_seconds / batched_seconds
        rows.append([
            name,
            graph.num_nodes,
            f"{scalar_seconds:.3f}",
            f"{batched_seconds:.3f}",
            f"{scalar_pushes / scalar_seconds:,.0f}",
            f"{batched_pushes / batched_seconds:,.0f}",
            f"{speedups[name]:.1f}x",
        ])
    return rows, speedups


def run_dynamics_comparison():
    """Every registered canonical dynamics, batched vs scalar, one loop.

    Dispatch is entirely through the grid specs — adding a dynamics to
    the registry adds a row here without touching the harness.
    """
    rng = np.random.default_rng(0)
    graph = load_graph(REFERENCE)
    seed_nodes = [
        int(u)
        for u in rng.choice(graph.num_nodes, size=NUM_SEEDS, replace=False)
    ]
    rows = []
    speedups = {}
    for spec in DYNAMICS_SPECS:
        scalar = time_spec_columns(graph, spec, seed_nodes, "scalar")
        batched = time_spec_columns(graph, spec, seed_nodes, "numpy")
        speedups[type(spec).name] = scalar / batched
        axes = ", ".join(
            f"{len(values)} {axis}" for axis, values in spec.grid_axes().items()
        )
        rows.append([
            f"{type(spec).name} ({axes} x {len(EPSILONS)} eps)",
            f"{scalar:.3f}",
            f"{batched:.3f}",
            f"{scalar / batched:.1f}x",
        ])
    return rows, speedups


def test_e12_batched_engine_throughput(benchmark):
    rows, speedups = benchmark.pedantic(
        run_comparison, rounds=1, iterations=1
    )
    print()
    print(format_table(
        ["graph", "n", "scalar s", "batched s",
         "scalar pushes/s", "batched pushes/s", "speedup"],
        rows,
        title=(
            f"E12: {NUM_SEEDS} seeds x {len(ALPHAS)} alphas x "
            f"{len(EPSILONS)} epsilons, scalar loop vs batched engine"
        ),
    ))
    reference_speedup = speedups[REFERENCE]
    print()
    print(format_comparison_verdict(
        "batched engine >= 3x scalar push on the AtP-DBLP reference",
        True, reference_speedup >= 3.0,
    ))
    assert reference_speedup >= 1.5, (
        f"batched engine only {reference_speedup:.1f}x on {REFERENCE}"
    )


def test_e12_multidynamics_throughput():
    rows, speedups = run_dynamics_comparison()
    print()
    print(format_table(
        ["dynamics", "scalar s", "batched s", "speedup"],
        rows,
        title=(
            f"E12b: registry-driven engines (all canonical dynamics), "
            f"{NUM_SEEDS} seeds on {REFERENCE}"
        ),
    ))
    print()
    print(format_comparison_verdict(
        "batched HK t-grid >= 5x the scalar loop on the reference",
        True, speedups["hk"] >= 5.0,
    ))
    for name, speedup in speedups.items():
        assert speedup >= 1.5, f"batched {name} only {speedup:.1f}x"
