"""Shared CLI plumbing: graph resolution, list parsing, output dirs."""

from __future__ import annotations

from pathlib import Path

from repro.cli.manifest import graph_record
from repro.datasets.suite import load_any_graph, suite_names
from repro.exceptions import InvalidParameterError


def add_graph_arguments(parser, *, required=True):
    """Attach the shared ``--graph`` / ``--graph-seed`` options.

    Pass ``required=False`` for commands that can obtain the graph
    elsewhere (``repro ncp --resume`` reads it from the manifest) and
    validate the either/or themselves.
    """
    names = ", ".join(suite_names())
    parser.add_argument(
        "--graph",
        required=required,
        metavar="NAME|PATH",
        help=(
            f"workload graph: a suite name ({names}), a scale-tier name "
            f"(rmat-*/lfr-*, see 'repro datasets'), or a path to an "
            f"edge-list (.tsv), .json, or binary .reprograph graph file"
        ),
    )
    parser.add_argument(
        "--graph-seed",
        type=int,
        default=0,
        metavar="N",
        help="generator seed used when --graph names a suite graph "
             "(default: 0)",
    )


def resolve_graph(args):
    """Load ``args.graph`` via the suite/file bridge; return (graph, record).

    The record is the manifest's ``graph`` section.  Unknown names raise
    :class:`~repro.datasets.UnknownGraphError` (with a did-you-mean
    suggestion), which :func:`repro.cli.main` turns into a clean
    ``error:`` line and exit code 2.
    """
    graph = load_any_graph(args.graph, seed=args.graph_seed)
    return graph, graph_record(
        graph, source=args.graph, graph_seed=args.graph_seed
    )


def parse_int_list(text, *, name):
    """Parse ``"0,5,12"`` into a list of ints."""
    try:
        values = [int(p) for p in str(text).split(",") if p.strip()]
    except ValueError:
        raise InvalidParameterError(
            f"{name}: expected comma-separated integers, got {text!r}"
        ) from None
    if not values:
        raise InvalidParameterError(f"{name}: expected at least one integer")
    return values


def parse_float_list(text, *, name):
    """Parse ``"1e-3,1e-4"`` into a tuple of floats."""
    try:
        values = tuple(float(p) for p in str(text).split(",") if p.strip())
    except ValueError:
        raise InvalidParameterError(
            f"{name}: expected comma-separated numbers, got {text!r}"
        ) from None
    if not values:
        raise InvalidParameterError(f"{name}: expected at least one number")
    return values


def ensure_out_dir(path):
    """Create (if needed) and return the output directory."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out
