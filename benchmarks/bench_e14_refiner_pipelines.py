"""E14 — refiner pipelines: improvement power and cost.

Figure 1's flow curve is the paper's evidence that flow-based
*improvement* systematically lowers conductance over raw proposals; the
refinement layer (:mod:`repro.refine`) makes that improvement a fixed
tuple of refiner records.  E14 iterates ``REFINERS`` — a new record
benchmarks itself — and measures, per refiner, how many
multilevel-bisection proposals improve, by how much, and at what
wall-clock cost; plus the vectorized-vs-scalar ``dilate``
micro-benchmark behind the FlowImprove stage.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import format_comparison_verdict, format_table
from repro.datasets import load_graph
from repro.ncp.profile import _unique_clusters
from repro.partition.flow_improve import _dilate_scalar, dilate
from repro.partition.metrics import conductance
from repro.partition.multilevel import recursive_bisection_clusters
from repro.refine import REFINERS, apply_refiners

# MOV solves a global linear system per proposal (the Section 3.3 cost
# contrast), so the shared proposal pool is kept small and on the
# mid-size whiskered graph rather than the full AtP reference.
PROPOSAL_GRAPH = "whiskered"
MAX_PROPOSALS = 12

DILATE_GRAPH = "atp"
DILATE_RADII = (1, 2, 3)
DILATE_TRIALS = 30


def bisection_proposals(graph):
    """Deterministic raw proposals: unique recursive-bisection sides
    whose volume respects the MQI precondition."""
    half = graph.total_volume / 2.0
    proposals = [
        nodes
        for nodes in _unique_clusters(
            recursive_bisection_clusters(graph, min_size=4, seed=0)
        )
        if float(graph.degrees[nodes].sum()) <= half
    ]
    return proposals[:MAX_PROPOSALS]


def run_refiner_comparison():
    """Every refiner over the same proposal pool.

    The rows come from ``REFINERS`` — a new record adds a row here
    without touching the harness.
    """
    graph = load_graph(PROPOSAL_GRAPH)
    proposals = bisection_proposals(graph)
    rows = []
    improvements = {}
    for kind in sorted(REFINERS, key=lambda kind: kind.key):
        key = kind.key
        spec = kind.default_spec()
        improved = 0
        deltas = []
        start = time.perf_counter()
        for nodes in proposals:
            pre = conductance(graph, nodes)
            trace = apply_refiners(graph, nodes, (spec,))
            assert trace.final_conductance <= pre + 1e-12, key
            if trace.changed:
                improved += 1
                deltas.append(pre - trace.final_conductance)
        seconds = time.perf_counter() - start
        improvements[key] = improved
        rows.append([
            spec.token(),
            len(proposals),
            improved,
            f"{float(np.mean(deltas)):.4f}" if deltas else "--",
            f"{seconds:.3f}",
        ])
    return rows, improvements


def run_dilate_comparison():
    """Vectorized CSR-gather dilation vs the scalar BFS oracle."""
    graph = load_graph(DILATE_GRAPH)
    rng = np.random.default_rng(0)
    starts = [
        rng.choice(graph.num_nodes, size=12, replace=False)
        for _ in range(DILATE_TRIALS)
    ]
    rows = []
    speedups = {}
    for radius in DILATE_RADII:
        begin = time.perf_counter()
        fast_sets = [dilate(graph, s, radius) for s in starts]
        fast = time.perf_counter() - begin
        begin = time.perf_counter()
        slow_sets = [_dilate_scalar(graph, s, radius) for s in starts]
        slow = time.perf_counter() - begin
        for a, b in zip(fast_sets, slow_sets):
            assert np.array_equal(a, b), "dilate parity violated"
        speedups[radius] = slow / fast
        rows.append([
            radius,
            f"{slow:.4f}",
            f"{fast:.4f}",
            f"{slow / fast:.1f}x",
        ])
    return rows, speedups


def test_e14_refiner_pipelines():
    rows, improvements = run_refiner_comparison()
    print()
    print(format_table(
        ["refiner", "proposals", "improved", "mean dphi", "seconds"],
        rows,
        title=(
            f"E14: every REFINERS record over {PROPOSAL_GRAPH} bisection "
            f"proposals (a new record benchmarks itself)"
        ),
    ))
    print()
    print(format_comparison_verdict(
        "the flow-based refiners improve bisection proposals "
        "(the Figure 1 flow-curve mechanism)",
        True, improvements["mqi"] > 0,
    ))
    assert improvements["mqi"] > 0
    # Every refiner at least ran the pool without worsening
    # anything (asserted per proposal inside the loop).
    assert set(improvements) >= {"mqi", "flow", "mov"}


def test_e14_dilate_vectorization():
    rows, speedups = run_dilate_comparison()
    print()
    print(format_table(
        ["radius", "scalar s", "vectorized s", "speedup"],
        rows,
        title=(
            f"E14b: dilate CSR-gather vs scalar BFS, "
            f"{DILATE_TRIALS} seed sets on {DILATE_GRAPH}"
        ),
    ))
    print()
    top = max(DILATE_RADII)
    print(format_comparison_verdict(
        f"vectorized dilate beats the scalar BFS at radius {top}",
        True, speedups[top] > 1.0,
    ))
    # The vectorized gather must win where the frontiers are large; tiny
    # radii are allowed to tie (per-call numpy overhead).
    assert speedups[top] >= 1.0, f"vectorized dilate only {speedups[top]:.2f}x"
