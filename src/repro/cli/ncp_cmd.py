"""``repro ncp`` — sharded NCP candidate ensembles from the command line.

One command runs :func:`repro.ncp.runner.run_ncp_ensemble` for any list
of registered dynamics on any suite graph or external edge-list file,
writing three artifacts into ``--out``:

* ``candidates.csv`` — the merged candidate ensemble, one row per
  candidate (dynamics, method label, size, conductance, node ids).  The
  runner's determinism guarantee makes this file byte-identical for any
  ``--workers`` value.
* ``profile.txt`` — the log-bucketed best-conductance NCP profile per
  dynamics (also printed).
* ``manifest.json`` — the run manifest; replaying its ``replay_argv``
  (with any worker count) reproduces ``candidates.csv`` byte for byte.

The manifest doubles as the resume record: it is written with
``"status": "started"`` before the first chunk runs and rewritten as
``"status": "complete"`` at the end, so ``repro ncp --resume <dir>``
after a crash rebuilds the exact workload from ``arguments``, probes the
chunk memo (``--cache-dir``), and executes only the missing chunks.
``--executor`` selects the execution strategy by registry name
(``serial`` / ``process`` / ``chaos:seed=3,kills=2``, see
:mod:`repro.execution`); the candidate bytes are identical under every
strategy.
"""

from __future__ import annotations

import numpy as np

from repro._validation import check_numpy_backend
from repro.cli import manifest as manifest_mod
from repro.cli._common import (
    add_graph_arguments,
    ensure_out_dir,
    parse_float_list,
    resolve_graph,
)
from repro.cli.specs import (
    parse_dynamics_list,
    parse_executor_spec,
    parse_refiner_chain,
)
from repro.core.experiments import Stopwatch
from repro.core.reporting import format_table
from repro.exceptions import InvalidParameterError, PartitionError
from repro.execution import get_executor
from repro.ncp.profile import best_per_size_bucket
from repro.ncp.runner import run_ncp_ensemble
from repro.refine import Pipeline

CANDIDATES_NAME = "candidates.csv"
PROFILE_NAME = "profile.txt"


def configure_parser(subparsers):
    """Register the ``ncp`` subcommand on the CLI parser."""
    parser = subparsers.add_parser(
        "ncp",
        help="run a sharded NCP candidate ensemble (any dynamics grid)",
        description=(
            "Run the network-community-profile candidate ensemble for "
            "one or more registered dynamics through the process-"
            "parallel, disk-memoized runner.  Writes candidates.csv + "
            "profile.txt + manifest.json into --out; the candidate file "
            "is byte-identical for any --workers value."
        ),
    )
    add_graph_arguments(parser, required=False)
    parser.add_argument(
        "--resume",
        default=None,
        metavar="MANIFEST",
        help="resume an interrupted run from its manifest.json (or the "
             "directory holding it): the workload is rebuilt from the "
             "manifest's arguments and only chunks missing from the "
             "chunk memo are recomputed (mutually exclusive with "
             "--graph; --workers/--executor/--out come from this "
             "command line)",
    )
    parser.add_argument(
        "--dynamics",
        default="ppr",
        metavar="SPECS",
        help="comma-separated dynamics spec strings, e.g. 'ppr,hk,walk' "
             "or 'ppr:alpha=0.05/0.15,eps=1e-4,hk:t=5' (default: ppr)",
    )
    parser.add_argument(
        "--refine",
        default=None,
        metavar="CHAIN",
        help="refiner chain applied to every candidate of every "
             "dynamics, e.g. 'mqi' or 'mqi,flow:radius=2' (registry "
             "names/aliases; default: no refinement)",
    )
    parser.add_argument(
        "--num-seeds",
        type=int,
        default=40,
        metavar="N",
        help="seed nodes sampled by degree per dynamics (default: 40)",
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
        default=None,
        metavar="E1,E2",
        help="truncation epsilons applied to every dynamics without its "
             "own eps=... override (default: each spec's defaults)",
    )
    parser.add_argument(
        "--max-cluster-size",
        type=int,
        default=None,
        metavar="K",
        help="sweep-prefix size cap (default: n // 2)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="W",
        help="worker processes for chunk evaluation; 0 = in-process "
             "serial (default: 0). The ensemble is identical either way.",
    )
    parser.add_argument(
        "--executor",
        default=None,
        metavar="SPEC",
        help="execution strategy: any registered repro.execution name "
             "or alias, optionally parameterized ('serial', 'process', "
             "'chaos:seed=3,kills=2'); default: process when --workers "
             ">= 1, serial otherwise. The ensemble is identical under "
             "every strategy.",
    )
    parser.add_argument(
        "--seeds-per-chunk",
        type=int,
        default=8,
        metavar="S",
        help="seeds per shard (cache-key granularity; default: 8)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="on-disk chunk memo directory (default: caching disabled)",
    )
    parser.add_argument(
        "--buckets",
        type=int,
        default=12,
        metavar="B",
        help="size buckets in the printed NCP profile (default: 12)",
    )
    parser.add_argument(
        "--out",
        required=True,
        metavar="DIR",
        help="output directory for candidates.csv, profile.txt, and "
             "manifest.json (created if missing)",
    )
    parser.set_defaults(run=run)
    return parser


def _candidate_lines(runs):
    """Deterministic CSV lines for the merged ensembles, header first."""
    lines = ["dynamics,method,size,conductance,nodes"]
    for run_result in runs:
        for candidate in run_result.candidates:
            nodes = " ".join(str(int(u)) for u in candidate.nodes)
            lines.append(
                f"{run_result.dynamics},{candidate.method},"
                f"{candidate.size},{candidate.conductance!r},{nodes}"
            )
    return lines


def _profile_text(run_result, num_buckets):
    """Render one run's NCP profile as an aligned table (or a note)."""
    title = (
        f"NCP profile: dynamics={run_result.dynamics} "
        f"candidates={len(run_result.candidates)} "
        f"chunks={run_result.num_chunks} cache_hits={run_result.cache_hits}"
    )
    try:
        profile = best_per_size_bucket(
            run_result.candidates, num_buckets=num_buckets
        )
    except PartitionError as exc:
        return f"{title}\n  (no profile: {exc})"
    rows = []
    edges = profile.bucket_edges
    for i, phi in enumerate(profile.best_conductance):
        representative = profile.representatives[i]
        rows.append([
            f"[{edges[i]:.0f}, {edges[i + 1]:.0f})",
            float(phi) if np.isfinite(phi) else float("nan"),
            representative.size if representative is not None else "--",
        ])
    return format_table(
        ["size bucket", "best conductance", "best size"], rows, title=title
    )


def _replay_argv(args, executor_kind=None, executor_spec=None):
    argv = [
        "ncp",
        "--graph", args.graph,
        "--graph-seed", str(args.graph_seed),
        "--dynamics", args.dynamics,
        "--num-seeds", str(args.num_seeds),
        "--seed", str(args.seed),
        "--seeds-per-chunk", str(args.seeds_per_chunk),
        "--buckets", str(args.buckets),
    ]
    if args.refine is not None:
        argv += ["--refine", args.refine]
    if args.epsilons is not None:
        argv += ["--epsilons", args.epsilons]
    if args.max_cluster_size is not None:
        argv += ["--max-cluster-size", str(args.max_cluster_size)]
    # Executors never change the candidate bytes, so the replay only pins
    # one when it was requested explicitly AND the registry marks it
    # replayable (chaos is not: its faults are execution facts, and an
    # abort_after fault would crash the replay).
    if executor_kind is not None and executor_kind.replayable:
        argv += ["--executor", executor_spec.token()]
    return argv


def _apply_resume_arguments(args, arguments):
    """Rebuild the workload half of ``args`` from a manifest record.

    Everything that determines the candidate bytes comes from the
    manifest; execution facts (``--workers``, ``--executor``, ``--out``)
    stay with the resuming command line, and ``--cache-dir`` falls back
    to the original run's memo directory so completed chunks are found.
    """
    args.graph = arguments["graph"]
    args.graph_seed = int(arguments.get("graph_seed", 0))
    args.dynamics = arguments["dynamics"]
    args.refine = arguments.get("refine")
    args.num_seeds = int(arguments["num_seeds"])
    args.seed = int(arguments["seed"])
    epsilons = arguments.get("epsilons")
    args.epsilons = (
        None if epsilons is None
        # repr round-trips floats exactly, so the resumed grid matches.
        else ",".join(repr(float(e)) for e in epsilons)
    )
    max_size = arguments.get("max_cluster_size")
    args.max_cluster_size = None if max_size is None else int(max_size)
    # Manifests from before the kernels had one implementation record a
    # backend; only the one that still exists can be resumed.
    check_numpy_backend(arguments.get("backend"))
    args.seeds_per_chunk = int(arguments["seeds_per_chunk"])
    args.buckets = int(arguments["buckets"])
    if args.cache_dir is None:
        args.cache_dir = arguments.get("cache_dir")


def run(args):
    """Execute ``repro ncp`` (see :func:`configure_parser`)."""
    watch = Stopwatch()
    if args.resume is not None:
        if args.graph is not None:
            raise InvalidParameterError(
                "pass --graph or --resume, not both: a resumed run takes "
                "its workload from the manifest"
            )
        resumed = manifest_mod.load_manifest(args.resume)
        if resumed["command"] != "ncp":
            raise InvalidParameterError(
                f"--resume: manifest records a {resumed['command']!r} "
                "run, not an ncp run"
            )
        _apply_resume_arguments(args, resumed["arguments"])
    elif args.graph is None:
        raise InvalidParameterError(
            "one of --graph or --resume is required"
        )
    graph, record = resolve_graph(args)
    requests = parse_dynamics_list(args.dynamics)
    refiners = (
        parse_refiner_chain(args.refine) if args.refine is not None else ()
    )
    shared_epsilons = (
        parse_float_list(args.epsilons, name="--epsilons")
        if args.epsilons is not None else None
    )
    executor_spec = (
        parse_executor_spec(args.executor)
        if args.executor is not None else None
    )
    executor_kind = (
        get_executor(executor_spec) if executor_spec is not None else None
    )
    out = ensure_out_dir(args.out)

    arguments = {
        "graph": args.graph,
        "graph_seed": args.graph_seed,
        "dynamics": args.dynamics,
        "refine": args.refine,
        "num_seeds": args.num_seeds,
        "seed": args.seed,
        "epsilons": shared_epsilons,
        "max_cluster_size": args.max_cluster_size,
        "workers": args.workers,
        "executor": (
            executor_spec.token() if executor_spec is not None else None
        ),
        "seeds_per_chunk": args.seeds_per_chunk,
        "cache_dir": args.cache_dir,
        "buckets": args.buckets,
    }
    replay_argv = _replay_argv(args, executor_kind, executor_spec)
    # The started manifest is the resume record: written before the first
    # chunk runs, so a crashed run leaves behind everything --resume
    # needs to rebuild the workload and probe the chunk memo.
    manifest_mod.write_manifest(out, manifest_mod.build_manifest(
        "ncp",
        arguments=arguments,
        replay_argv=replay_argv,
        graph=record,
        outputs=[],
        wall_seconds=watch.elapsed(),
        status="started",
        runs=[],
    ))

    chain_note = (
        " refine=" + ">".join(spec.token() for spec in refiners)
        if refiners else ""
    )
    print(
        f"ncp: graph={args.graph} (n={graph.num_nodes}, "
        f"m={graph.num_edges}) dynamics="
        f"{','.join(r.key for r in requests)}{chain_note} "
        f"workers={args.workers}"
    )
    runs = []
    for request in requests:
        grid = request.grid(
            epsilons=shared_epsilons,
            num_seeds=args.num_seeds,
            seed=args.seed,
            max_cluster_size=args.max_cluster_size,
        )
        workload = Pipeline(grid, refiners=refiners) if refiners else grid
        runs.append(run_ncp_ensemble(
            graph,
            workload,
            num_workers=args.workers,
            seeds_per_chunk=args.seeds_per_chunk,
            cache_dir=args.cache_dir,
            executor=executor_spec,
        ))

    candidates_path = out / CANDIDATES_NAME
    candidates_path.write_text(
        "\n".join(_candidate_lines(runs)) + "\n", encoding="utf-8"
    )
    profile_blocks = [_profile_text(r, args.buckets) for r in runs]
    profile_path = out / PROFILE_NAME
    profile_path.write_text(
        "\n\n".join(profile_blocks) + "\n", encoding="utf-8"
    )
    print()
    print("\n\n".join(profile_blocks))

    built = manifest_mod.build_manifest(
        "ncp",
        arguments=arguments,
        replay_argv=replay_argv,
        graph=record,
        outputs=[CANDIDATES_NAME, PROFILE_NAME],
        wall_seconds=watch.elapsed(),
        status="complete",
        runs=[r.manifest() for r in runs],
    )
    manifest_path = manifest_mod.write_manifest(out, built)
    print()
    total = sum(len(r.candidates) for r in runs)
    print(f"wrote {candidates_path} ({total} candidates), {profile_path}, "
          f"{manifest_path}")
    return 0
