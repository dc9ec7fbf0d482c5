"""E15 — the scaling curve: wall time vs graph size on the scale tier.

The paper's strongly-local claim is an *asymptotic* statement: the cost
of one seeded diffusion depends on the support the push reaches, not on
the size of the graph it lives in.  E15 makes that measurable.  For a
ladder of R-MAT sizes (a quarter-million to a couple of million edges)
it times every stage of the scale pipeline —

* generation (vectorized R-MAT sampling + largest-component compaction),
* binary export (:func:`repro.graph.storage.write_binary`),
* memory-mapped load (:func:`repro.graph.storage.read_binary`),
* a fixed strongly-local NCP slice (same seeds, same grid), whose PPR
  kernel is also timed as an A/B: one ``batch_ppr_push`` call against a
  loop of single-column ``approximate_ppr_push`` calls over the same
  seeds,

— and writes the curve to ``BENCH_scale.json`` at the repository root.
The headline is the last column: the per-seed diffusion slice should be
*flat* (or nearly so) as the graph grows 8x, because the push never
touches most of the graph; generation and serialization, which are
genuinely linear, provide the contrast.

Points are configurable via ``REPRO_SCALE_POINTS`` (comma-separated
R-MAT scales, default ``13,15,17``) so CI can run a capped ladder.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.api import PPR, DiffusionGrid
from repro.core import format_table
from repro.datasets import rmat_graph
from repro.diffusion.engine import batch_ppr_push
from repro.diffusion.push import approximate_ppr_push
from repro.diffusion.seeds import degree_weighted_indicator_seed
from repro.graph.storage import read_binary, write_binary
from repro.ncp import run_ncp_ensemble

DEFAULT_POINTS = "13,15,17"
NUM_SEEDS = 8
ALPHA = 0.1
EPSILON = 1e-3
KERNELS = ("numpy", "scalar")
BENCH_NAME = "BENCH_scale.json"


def scale_points():
    raw = os.environ.get("REPRO_SCALE_POINTS", DEFAULT_POINTS)
    return [int(p) for p in raw.split(",") if p.strip()]


def ncp_slice(graph):
    """The fixed strongly-local NCP slice, end to end and kernel A/B.

    ``pipeline_seconds`` is one whole ``run_ncp_ensemble`` pass;
    ``push_seconds`` times only its PPR kernel over the same seed nodes
    twice, each after one untimed warm-up: ``numpy`` is one
    ``batch_ppr_push`` call, ``scalar`` a loop of single-column
    ``approximate_ppr_push`` calls.  (Older reports carry an
    ``engine_seconds`` key instead, which timed the whole slice, diffusion
    plus sweep, per kernel path; the two are not comparable.)
    """
    grid = DiffusionGrid(
        PPR(alpha=(ALPHA,)),
        epsilons=(EPSILON,),
        num_seeds=NUM_SEEDS,
        seed=0,
    )
    start = time.perf_counter()
    result = run_ncp_ensemble(graph, grid)
    pipeline = time.perf_counter() - start
    assert result.candidates, "NCP slice produced no candidates"

    vectors = [
        degree_weighted_indicator_seed(graph, [int(s)])
        for s in result.seed_nodes
    ]

    def numpy_push():
        batch_ppr_push(graph, vectors, alphas=(ALPHA,), epsilons=(EPSILON,))

    def scalar_push():
        for vector in vectors:
            approximate_ppr_push(graph, vector, alpha=ALPHA, epsilon=EPSILON)

    seconds = {}
    for name, push in (("numpy", numpy_push), ("scalar", scalar_push)):
        push()
        start = time.perf_counter()
        push()
        seconds[name] = time.perf_counter() - start
    return {"pipeline_seconds": pipeline, "push_seconds": seconds}


def measure_point(scale, tmp_dir):
    start = time.perf_counter()
    graph = rmat_graph(scale, seed=scale)
    generate = time.perf_counter() - start

    path = tmp_dir / f"rmat-{scale}.reprograph"
    start = time.perf_counter()
    write_binary(graph, path)
    write = time.perf_counter() - start

    start = time.perf_counter()
    loaded = read_binary(path)
    load = time.perf_counter() - start
    assert loaded.num_edges == graph.num_edges

    timings = ncp_slice(loaded)
    # Drop the memmap references before the tmp file is cleaned up.
    del loaded
    return {
        "scale": int(scale),
        "num_nodes": int(graph.num_nodes),
        "num_edges": int(graph.num_edges),
        "generate_seconds": generate,
        "write_binary_seconds": write,
        "load_binary_seconds": load,
        "file_bytes": int(path.stat().st_size),
        "ncp_slice": {
            "num_seeds": NUM_SEEDS,
            "alpha": ALPHA,
            "epsilon": EPSILON,
            **timings,
        },
    }


def test_e15_scaling_curve(tmp_path):
    points = [measure_point(scale, tmp_path) for scale in scale_points()]

    rows = [
        [
            f"rmat-{p['scale']}",
            p["num_nodes"],
            p["num_edges"],
            f"{p['generate_seconds']:.2f}",
            f"{p['write_binary_seconds']:.2f}",
            f"{p['load_binary_seconds']:.4f}",
            f"{p['ncp_slice']['pipeline_seconds']:.3f}",
            f"{p['ncp_slice']['push_seconds']['numpy']:.4f}",
            f"{p['ncp_slice']['push_seconds']['scalar']:.4f}",
        ]
        for p in points
    ]
    print()
    print(format_table(
        ["graph", "n", "m", "gen s", "write s", "load s",
         "ncp s", "push numpy s", "push scalar s"],
        rows,
        title=(
            f"E15: scale ladder, {NUM_SEEDS}-seed strongly-local NCP "
            f"slice (alpha={ALPHA}, eps={EPSILON})"
        ),
    ))

    report = {
        "points": points,
        "num_seeds": NUM_SEEDS,
        "alpha": ALPHA,
        "epsilon": EPSILON,
        "kernels": list(KERNELS),
    }
    out = Path(__file__).resolve().parents[1] / BENCH_NAME
    out.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"\nwrote {out}")

    # Memory-mapped loading must be effectively instant relative to
    # generation at every size — that is the point of the format.
    for p in points:
        assert p["load_binary_seconds"] < max(
            0.5, 0.1 * p["generate_seconds"]
        )
    # The strongly-local slice must scale strictly sublinearly in the
    # graph.  It is not perfectly flat — NCP seeds are degree-weighted
    # and R-MAT hub degrees grow with the graph, so bigger graphs hand
    # the push genuinely bigger seeds — but a slice that kept pace with
    # the edge count would mean locality is lost.
    small, large = points[0], points[-1]
    edge_ratio = large["num_edges"] / max(1, small["num_edges"])
    time_ratio = (
        large["ncp_slice"]["pipeline_seconds"]
        / max(1e-9, small["ncp_slice"]["pipeline_seconds"])
    )
    assert time_ratio < max(4.0, 0.75 * edge_ratio), (
        f"NCP slice scaled {time_ratio:.1f}x while edges grew only "
        f"{edge_ratio:.1f}x — strong locality lost"
    )
