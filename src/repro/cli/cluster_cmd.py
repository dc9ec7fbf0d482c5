"""``repro cluster`` — seeded strongly local clustering from the CLI.

Runs :func:`repro.partition.local.local_cluster` from an explicit seed
set with any single-point dynamics spec parsed from a
``--dynamics ppr:alpha=0.1,eps=1e-4`` style string (bare names resolve
to the dynamics' registered default local point, e.g. the walk's step
count scales with the graph).  With ``--out`` set, the cluster and a run
manifest are written as JSON.
"""

from __future__ import annotations

from repro.cli import manifest as manifest_mod
from repro.cli._common import (
    add_graph_arguments,
    ensure_out_dir,
    parse_int_list,
    resolve_graph,
)
from repro.cli.specs import parse_dynamics_spec, parse_refiner_chain
from repro.core.experiments import Stopwatch
from repro.core.reporting import format_table
from repro.exceptions import InvalidParameterError
from repro.partition.local import local_cluster

CLUSTER_NAME = "cluster.json"

# Seed-set sizes above this are elided in the stdout node listing; the
# full membership always goes to cluster.json.
_PRINT_LIMIT = 40


def configure_parser(subparsers):
    """Register the ``cluster`` subcommand on the CLI parser."""
    parser = subparsers.add_parser(
        "cluster",
        help="seeded local clustering with any single-point dynamics",
        description=(
            "Compute one strongly local cluster from a seed set: a "
            "single diffusion (PPR / heat kernel / lazy walk / any "
            "registered dynamics) plus a degree-normalized sweep over "
            "its support.  --dynamics takes a spec string such as "
            "'ppr:alpha=0.1,eps=1e-4'; a bare name uses the dynamics' "
            "default local point."
        ),
    )
    add_graph_arguments(parser)
    parser.add_argument(
        "--seeds",
        required=True,
        metavar="U1,U2",
        help="comma-separated seed node ids",
    )
    parser.add_argument(
        "--dynamics",
        default="ppr",
        metavar="SPEC",
        help="one dynamics spec string; eps=... sets the truncation "
             "epsilon (default: ppr with its default local point)",
    )
    parser.add_argument(
        "--refine",
        default=None,
        metavar="CHAIN",
        help="refiner chain applied to the sweep cluster, e.g. 'mqi' or "
             "'mqi,flow:radius=2' (default: no refinement)",
    )
    parser.add_argument(
        "--epsilon",
        type=float,
        default=None,
        metavar="E",
        help="truncation epsilon when the spec string has no eps=... "
             "(default: 1e-4)",
    )
    parser.add_argument(
        "--max-volume",
        type=float,
        default=None,
        metavar="V",
        help="optional volume cap on the sweep (Problem (9)'s k)",
    )
    parser.add_argument(
        "--min-size",
        type=int,
        default=1,
        metavar="K",
        help="minimum cluster size accepted by the sweep (default: 1)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="optional output directory for cluster.json + manifest.json",
    )
    parser.set_defaults(run=run)
    return parser


def _resolve_epsilon(request, args):
    if request.epsilons is not None:
        if len(request.epsilons) != 1:
            raise InvalidParameterError(
                f"--dynamics {request.raw!r}: local clustering needs a "
                f"single eps, got {list(request.epsilons)}"
            )
        return float(request.epsilons[0])
    return 1e-4 if args.epsilon is None else float(args.epsilon)


def _result_record(result, *, dynamics_key, epsilon, refiners):
    import dataclasses

    return {
        "dynamics": dynamics_key,
        "method": result.method,
        "epsilon": epsilon,
        "refiners": [spec.token() for spec in refiners],
        "refinement": [
            dataclasses.asdict(step) for step in result.refinement
        ],
        "seed_nodes": result.seed_nodes,
        "nodes": result.nodes,
        "size": int(result.nodes.size),
        "conductance": float(result.conductance),
        "support_size": int(result.support_size),
        "work": int(result.work),
        "contains_seed": bool(result.contains_seed),
    }


def _replay_argv(args):
    argv = [
        "cluster",
        "--graph", args.graph,
        "--graph-seed", str(args.graph_seed),
        "--seeds", args.seeds,
        "--dynamics", args.dynamics,
        "--min-size", str(args.min_size),
    ]
    if args.refine is not None:
        argv += ["--refine", args.refine]
    if args.epsilon is not None:
        argv += ["--epsilon", repr(float(args.epsilon))]
    if args.max_volume is not None:
        argv += ["--max-volume", repr(float(args.max_volume))]
    return argv


def run(args):
    """Execute ``repro cluster`` (see :func:`configure_parser`)."""
    watch = Stopwatch()
    graph, record = resolve_graph(args)
    seeds = parse_int_list(args.seeds, name="--seeds")
    request = parse_dynamics_spec(args.dynamics)
    refiners = (
        parse_refiner_chain(args.refine) if args.refine is not None else ()
    )
    epsilon = _resolve_epsilon(request, args)
    spec = request.local_spec(graph)

    result = local_cluster(
        graph, seeds, spec, epsilon=epsilon,
        max_volume=args.max_volume, min_size=args.min_size,
        refiners=refiners,
    )

    print(format_table(
        ["field", "value"],
        [["graph", f"{args.graph} (n={graph.num_nodes}, "
                   f"m={graph.num_edges})"],
         ["dynamics", f"{request.key} ({spec!r})"],
         ["method", result.method],
         ["refiners", ">".join(s.token() for s in refiners) or "--"],
         ["epsilon", epsilon],
         ["seed nodes", " ".join(str(s) for s in result.seed_nodes)],
         ["cluster size", int(result.nodes.size)],
         ["conductance", float(result.conductance)],
         ["support size", result.support_size],
         ["edge work", result.work],
         ["contains seed", result.contains_seed]],
        title="local cluster",
    ))
    nodes = [int(u) for u in result.nodes]
    shown = nodes if len(nodes) <= _PRINT_LIMIT else nodes[:_PRINT_LIMIT]
    suffix = "" if len(nodes) <= _PRINT_LIMIT else \
        f" ... (+{len(nodes) - _PRINT_LIMIT} more)"
    print(f"nodes: {' '.join(str(u) for u in shown)}{suffix}")

    if args.out is None:
        return 0
    out = ensure_out_dir(args.out)
    cluster_record = _result_record(
        result, dynamics_key=request.key, epsilon=epsilon, refiners=refiners
    )
    cluster_path = out / CLUSTER_NAME
    import json

    cluster_path.write_text(
        json.dumps(manifest_mod.jsonable(cluster_record), indent=2,
                   sort_keys=True) + "\n",
        encoding="utf-8",
    )
    built = manifest_mod.build_manifest(
        "cluster",
        arguments={
            "graph": args.graph,
            "graph_seed": args.graph_seed,
            "seeds": seeds,
            "dynamics": args.dynamics,
            "refine": args.refine,
            "epsilon": epsilon,
            "max_volume": args.max_volume,
            "min_size": args.min_size,
        },
        replay_argv=_replay_argv(args),
        graph=record,
        outputs=[CLUSTER_NAME],
        wall_seconds=watch.elapsed(),
        result=cluster_record,
    )
    manifest_path = manifest_mod.write_manifest(out, built)
    print(f"wrote {cluster_path}, {manifest_path}")
    return 0
