"""``repro datasets`` — list, describe, and export the named graph suite."""

from __future__ import annotations

from pathlib import Path

from repro.cli import manifest as manifest_mod
from repro.cli._common import ensure_out_dir
from repro.core.experiments import Stopwatch
from repro.core.reporting import format_markdown_table, format_table
from repro.datasets.scale import SCALE_SUITE
from repro.datasets.suite import describe, load_graph, suite_names
from repro.exceptions import InvalidParameterError
from repro.graph.io import write_edge_list, write_json
from repro.graph.storage import write_binary

# --export serializers: writer + the default output suffix each implies.
_EXPORT_FORMATS = {
    "edgelist": (write_edge_list, ".tsv"),
    "json": (write_json, ".json"),
    "binary": (write_binary, ".reprograph"),
}


def configure_parser(subparsers):
    """Register the ``datasets`` subcommand on the CLI parser."""
    parser = subparsers.add_parser(
        "datasets",
        help="list, describe, or export the named suite graphs",
        description=(
            "List the named graph suite (every graph reachable by name "
            "from --graph), describe one graph's role in the paper's "
            "story, or export a suite graph to an edge-list file that "
            "any --graph option accepts back."
        ),
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--markdown",
        action="store_true",
        help="emit the listing as a GitHub-flavored markdown table "
             "(the README's dataset table is generated this way)",
    )
    mode.add_argument(
        "--describe",
        metavar="NAME",
        default=None,
        help="print one suite graph's role and statistics",
    )
    mode.add_argument(
        "--export",
        metavar="NAME",
        default=None,
        help="write a suite graph to a file (see --format and --out)",
    )
    parser.add_argument(
        "--format",
        choices=sorted(_EXPORT_FORMATS),
        default="edgelist",
        help="serialization for --export: edgelist (.tsv text), json, or "
             "binary (.reprograph, memory-mapped on load — use this for "
             "scale-tier graphs) (default: edgelist)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="output path for --export (default: <name> plus the "
             "format's suffix, in the current directory); a run manifest "
             "is written next to it",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="generator seed for randomized suite graphs (default: 0)",
    )
    parser.set_defaults(run=run)
    return parser


def _rows(seed):
    rows = []
    for name in suite_names():
        graph = load_graph(name, seed=seed)
        rows.append([name, graph.num_nodes, graph.num_edges, describe(name)])
    # Scale-tier rows report design targets instead of building: listing
    # the suite must never cost a multi-million-edge generation.
    for name in sorted(SCALE_SUITE):
        spec = SCALE_SUITE[name]
        rows.append([name, f"~{spec.approx_nodes}", f"~{spec.approx_edges}",
                     spec.role])
    return rows


def _run_export(args):
    watch = Stopwatch()
    graph = load_graph(args.export, seed=args.seed)
    writer, suffix = _EXPORT_FORMATS[args.format]
    out = Path(args.out) if args.out else Path(f"{args.export}{suffix}")
    ensure_out_dir(out.parent)
    writer(graph, out)
    record = manifest_mod.graph_record(
        graph, source=args.export, graph_seed=args.seed
    )
    built = manifest_mod.build_manifest(
        "datasets",
        arguments={"export": args.export, "seed": args.seed,
                   "format": args.format, "out": str(out)},
        replay_argv=["datasets", "--export", args.export,
                     "--format", args.format, "--seed", str(args.seed)],
        graph=record,
        outputs=[out.name],
        wall_seconds=watch.elapsed(),
    )
    # Named after the exported file: an export into a directory that
    # already holds another run's manifest.json must not clobber it.
    manifest_path = manifest_mod.write_manifest(
        out.parent, built, name=f"{out.name}.manifest.json"
    )
    print(f"exported {args.export} ({graph.num_nodes} nodes, "
          f"{graph.num_edges} edges) -> {out}")
    print(f"wrote {manifest_path}")
    return 0


def run(args):
    """Execute ``repro datasets`` (see :func:`configure_parser`)."""
    if args.out is not None and not args.export:
        raise InvalidParameterError(
            "--out only applies to --export; nothing would be written"
        )
    if args.export:
        return _run_export(args)
    if args.describe:
        name = args.describe
        role = describe(name)  # raises UnknownGraphError with a hint
        if name in SCALE_SUITE:
            # Describing must stay instant; report the design targets and
            # leave generation to --export / --graph.
            spec = SCALE_SUITE[name]
            print(format_table(
                ["field", "value"],
                [["name", name],
                 ["role", role],
                 ["nodes", f"~{spec.approx_nodes} (target, not built)"],
                 ["edges", f"~{spec.approx_edges} (target, not built)"],
                 ["tier", "scale"]],
                title=f"scale-tier graph {name!r}",
            ))
            return 0
        graph = load_graph(name, seed=args.seed)
        print(format_table(
            ["field", "value"],
            [["name", name],
             ["role", role],
             ["nodes", graph.num_nodes],
             ["edges", graph.num_edges],
             ["volume", float(graph.total_volume)],
             ["connected", bool(graph.is_connected())]],
            title=f"suite graph {name!r}",
        ))
        return 0
    headers = ["name", "nodes", "edges", "role"]
    rows = _rows(args.seed)
    if args.markdown:
        print(format_markdown_table(headers, rows, align="lrrl"))
    else:
        print(format_table(headers, rows,
                           title=f"graph suite (seed={args.seed})"))
    return 0
