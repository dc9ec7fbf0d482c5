"""``repro`` — the command-line workbench over the ``repro.api`` facade.

One executable (``python -m repro``, or the ``repro`` console script once
the package is installed) turns every experiment the library supports
into a reproducible one-liner:

* ``repro datasets`` — list/describe the named graph suite, or export
  any suite graph to an edge-list file;
* ``repro ncp`` — sharded, memoized NCP candidate ensembles for any
  registered dynamics grid, on a suite graph or an external edge list;
* ``repro cluster`` — seeded strongly local clustering with any
  single-point dynamics spec (``--dynamics ppr:alpha=0.1,eps=1e-4``);
* ``repro lint`` — the AST-based invariant checker
  (:mod:`repro.analysis`): registry dispatch, determinism, cache
  versioning, exception policy, executor discipline.

Every run that produces files also writes a JSON **run manifest**
(:mod:`repro.cli.manifest`) next to them — resolved spec, graph
fingerprint, seed, worker count, package version, wall time — so any
result can be replayed byte for byte from its recorded parameters.

Library errors (:class:`~repro.exceptions.ReproError`, which includes
unknown graph/dynamics names with did-you-mean suggestions) are printed
as one ``error:`` line and exit with status 2.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.cli import cluster_cmd, datasets_cmd, lint_cmd, ncp_cmd
from repro.exceptions import ReproError

__all__ = ["build_parser", "main"]

_DESCRIPTION = (
    "Workbench for the repro library: run NCP ensembles and local "
    "clustering on the named graph suite or on your own edge-list "
    "files, with a JSON run manifest written next to every result."
)

_EPILOG = (
    "Examples:\n"
    "  python -m repro datasets --markdown\n"
    "  python -m repro ncp --graph atp --dynamics ppr,hk,walk "
    "--workers 2 --out runs/atp\n"
    "  python -m repro cluster --graph barbell --seeds 0 "
    "--dynamics ppr:alpha=0.1,eps=1e-4\n"
    "  python -m repro lint src/ --format github\n"
)

# The subcommand modules, in help-listing order.  Each exposes
# configure_parser(subparsers) -> parser and a run(args) -> int handler.
_COMMAND_MODULES = (datasets_cmd, ncp_cmd, cluster_cmd, lint_cmd)


def _version_string():
    import repro

    return f"repro {getattr(repro, '__version__', 'unknown')}"


def build_parser():
    """Build the ``repro`` argument parser with every subcommand attached.

    The returned parser carries a ``repro_subparsers`` attribute mapping
    subcommand name -> its :class:`argparse.ArgumentParser`, which the
    help-coverage tests use to assert that every subcommand and option
    documents itself.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description=_DESCRIPTION,
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version=_version_string()
    )
    subparsers = parser.add_subparsers(
        dest="command",
        metavar="<command>",
        required=True,
        help="what to run (each accepts --help)",
    )
    parser.repro_subparsers = {}
    for module in _COMMAND_MODULES:
        sub = module.configure_parser(subparsers)
        parser.repro_subparsers[sub.prog.split()[-1]] = sub
    return parser


def main(argv=None):
    """CLI entry point; returns a process exit status.

    ``argv`` defaults to ``sys.argv[1:]``.  Library failures
    (:class:`~repro.exceptions.ReproError`) exit 2 with a single
    ``error:`` line on stderr instead of a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `repro datasets | head`);
        # point stdout at devnull so the interpreter's exit flush does
        # not raise a second time, and exit with the SIGPIPE convention.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
