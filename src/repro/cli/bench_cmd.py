"""``repro bench`` — the registry-driven backend benchmark (E12b).

Times every registered dynamics' full diffusion grid through the same
``spec.iter_columns`` entry point the NCP pipeline uses, once per
registered :mod:`repro.backends` backend (numpy / scalar / any
third-party registration), and writes ``BENCH_engine.json`` (one
section per dynamics, one timing entry per backend) plus a run manifest
into ``--out``.  Each (dynamics, backend) pair gets one untimed warm-up
drain first, so one-time costs never pollute the timings.
Because dispatch goes through both registries, a newly registered
dynamics or backend benchmarks itself with no changes here.  The
pre-backend ``scalar_seconds`` / ``batched_seconds`` / ``speedup`` keys
are kept per section whenever both the ``scalar`` and ``numpy``
backends were timed.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.cli import manifest as manifest_mod
from repro.cli._common import (
    Stopwatch,
    add_graph_arguments,
    ensure_out_dir,
    parse_float_list,
    resolve_graph,
)
from repro.backends import registered_backends, resolve_backend_name
from repro.core.reporting import format_table
from repro.dynamics import registered_dynamics
from repro.ncp.profile import _sample_seed_nodes

BENCH_NAME = "BENCH_engine.json"


def configure_parser(subparsers):
    """Register the ``bench`` subcommand on the CLI parser."""
    parser = subparsers.add_parser(
        "bench",
        help="benchmark every registered dynamics on every backend",
        description=(
            "Benchmark the registered kernel backends against each "
            "other: every registered dynamics' default grid is drained "
            "through spec.iter_columns once per backend (after an "
            "untimed warm-up, so one-time costs are excluded) and "
            "the timings are written to BENCH_engine.json "
            "(+ manifest.json) in --out."
        ),
    )
    add_graph_arguments(parser, default="atp")
    parser.add_argument(
        "--num-seeds",
        type=int,
        default=10,
        metavar="N",
        help="seed nodes per dynamics, sampled by degree (default: 10)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="RNG seed for seed-node sampling (default: 0)",
    )
    parser.add_argument(
        "--epsilons",
        default="1e-3,1e-4",
        metavar="E1,E2",
        help="truncation epsilons for every grid (default: 1e-3,1e-4)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=1,
        metavar="R",
        help="timing rounds per backend; the best round is reported "
             "(default: 1)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAMES",
        help="comma-separated backends to time (names or aliases; "
             "default: every registered backend)",
    )
    parser.add_argument(
        "--out",
        default=".",
        metavar="DIR",
        help="output directory for BENCH_engine.json and manifest.json "
             "(default: current directory)",
    )
    parser.set_defaults(run=run)
    return parser


def _time_columns(graph, spec, seed_nodes, epsilons, backend, rounds):
    """Best-of-``rounds`` wall time to drain one spec's diffusion grid.

    One untimed warm-up drain (a single seed) runs first so one-time
    costs never reach the timings.
    """
    for _column in spec.iter_columns(
        graph, seed_nodes[:1], epsilons=epsilons, backend=backend
    ):
        pass
    best = float("inf")
    for _ in range(max(1, rounds)):
        start = time.perf_counter()
        for _column in spec.iter_columns(
            graph, seed_nodes, epsilons=epsilons, backend=backend
        ):
            pass
        best = min(best, time.perf_counter() - start)
    return best


def _backend_names(argument):
    """The canonical backends to time (``--backend`` or the registry)."""
    if argument is None:
        return sorted(registered_backends())
    names = []
    for part in argument.split(","):
        if part.strip():
            key = resolve_backend_name(part.strip())
            if key not in names:
                names.append(key)
    return names


def run(args):
    """Execute ``repro bench`` (see :func:`configure_parser`)."""
    watch = Stopwatch()
    graph, record = resolve_graph(args)
    epsilons = parse_float_list(args.epsilons, name="--epsilons")
    rng = np.random.default_rng(args.seed)
    seed_nodes = [
        int(u) for u in _sample_seed_nodes(graph, args.num_seeds, rng)
    ]

    backends = _backend_names(args.backend)
    print(
        f"bench: graph={args.graph} (n={graph.num_nodes}, "
        f"m={graph.num_edges}) seeds={len(seed_nodes)} "
        f"epsilons={list(epsilons)} backends={backends}"
    )
    sections = {}
    rows = []
    for key in sorted(registered_dynamics()):
        kind = registered_dynamics()[key]
        spec = kind.default_spec()
        timings = {}
        for name in backends:
            timings[name] = _time_columns(
                graph, spec, seed_nodes, epsilons, name, args.rounds
            )
        reference = timings.get("numpy")
        columns = spec.grid_size(epsilons) * len(seed_nodes)
        section = {
            "spec": repr(spec),
            "num_columns": int(columns),
            "backends": {
                name: {
                    "backend": name,
                    "seconds": seconds,
                    "speedup_vs_numpy": (
                        reference / seconds
                        if reference is not None and seconds > 0
                        else None
                    ),
                }
                for name, seconds in timings.items()
            },
        }
        if "scalar" in timings and "numpy" in timings:
            # Pre-backend report keys, kept for downstream consumers:
            # 'batched' was the numpy backend's historical name.
            section["scalar_seconds"] = timings["scalar"]
            section["batched_seconds"] = timings["numpy"]
            section["speedup"] = (
                timings["scalar"] / timings["numpy"]
                if timings["numpy"] > 0 else float("inf")
            )
        sections[key] = section
        axes = ", ".join(
            f"{len(values)} {axis}"
            for axis, values in spec.grid_axes().items()
        )
        for name in backends:
            entry = section["backends"][name]
            vs = entry["speedup_vs_numpy"]
            rows.append([
                f"{key} ({axes} x {len(epsilons)} eps)",
                name,
                timings[name],
                f"{vs:.1f}x" if vs is not None else "--",
            ])
    print()
    print(format_table(
        ["dynamics", "backend", "seconds", "vs numpy"],
        rows,
        title="E12b: registry-driven kernels, one timing per backend",
    ))

    out = ensure_out_dir(args.out)
    report = {
        "graph": record["source"],
        "num_nodes": record["num_nodes"],
        "num_edges": record["num_edges"],
        "num_seeds": len(seed_nodes),
        "epsilons": list(epsilons),
        "rounds": int(args.rounds),
        "backends": backends,
        "dynamics": sections,
    }
    bench_path = out / BENCH_NAME
    bench_path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    built = manifest_mod.build_manifest(
        "bench",
        arguments={
            "graph": args.graph,
            "graph_seed": args.graph_seed,
            "num_seeds": args.num_seeds,
            "seed": args.seed,
            "epsilons": list(epsilons),
            "rounds": args.rounds,
            "backends": backends,
        },
        replay_argv=[
            "bench",
            "--graph", args.graph,
            "--graph-seed", str(args.graph_seed),
            "--num-seeds", str(args.num_seeds),
            "--seed", str(args.seed),
            "--epsilons", args.epsilons,
            "--rounds", str(args.rounds),
            "--backend", ",".join(backends),
        ],
        graph=record,
        outputs=[BENCH_NAME],
        wall_seconds=watch.elapsed(),
    )
    manifest_path = manifest_mod.write_manifest(out, built)
    print()
    print(f"wrote {bench_path}, {manifest_path}")
    return 0
