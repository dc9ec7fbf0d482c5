"""``repro lint`` — run the AST invariant checker over the codebase.

Exit codes follow the linter convention: 0 on a clean tree, 1 on any
finding, 2 on usage errors (unknown rules, missing paths — any
:class:`~repro.exceptions.ReproError`), and the shared BrokenPipeError
-> 141 convention of :func:`repro.cli.main` holds for every output path.
"""

from __future__ import annotations

from repro.analysis import RULES, format_findings, lint_paths
from repro.analysis.findings import OUTPUT_FORMATS
from repro.core.reporting import format_table
from repro.exceptions import InvalidParameterError


def configure_parser(subparsers):
    """Register the ``lint`` subcommand on the CLI parser."""
    parser = subparsers.add_parser(
        "lint",
        help="check the registry/determinism/cache-versioning contracts",
        description=(
            "Run the AST-based invariant checker (repro.analysis) over "
            "python files or directories: registry dispatch instead of "
            "string comparisons, cache-version discipline, determinism "
            "hazards, exception policy, and executor discipline.  "
            "Exits 0 on a clean tree, 1 on findings, 2 on usage errors."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (directories are walked for "
             "*.py; required unless --list is given)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids/codes/aliases to run "
             "(default: every rule; see --list)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids/codes/aliases to skip",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=[],
        metavar="GLOB",
        help="path glob to skip (repeatable), e.g. 'tests/fixtures/*'",
    )
    parser.add_argument(
        "--format",
        choices=OUTPUT_FORMATS,
        default="human",
        help="finding output style: human (path:line:col lines), json "
             "(machine-readable report), or github (GitHub Actions "
             "::error annotations) (default: human)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_rules",
        help="list every rule (id, code, one-line description, aliases) "
             "and exit",
    )
    parser.set_defaults(run=run)
    return parser


def _run_list():
    rows = [
        [rule.key, rule.code, rule.description, ", ".join(rule.aliases)]
        for rule in RULES
    ]
    print(format_table(
        ["rule", "code", "description", "aliases"],
        rows,
        title=f"lint rules ({len(rows)})",
    ))
    return 0


def run(args):
    """Execute ``repro lint`` (see :func:`configure_parser`)."""
    if args.list_rules:
        return _run_list()
    if not args.paths:
        raise InvalidParameterError(
            "lint needs at least one file or directory to check "
            "(or --list to show the rules)"
        )
    report = lint_paths(
        args.paths,
        select=args.select,
        ignore=args.ignore,
        exclude=tuple(args.exclude),
    )
    output = format_findings(report.findings, args.format)
    if output:
        print(output)
    if args.format == "human":
        print(
            f"{len(report.findings)} finding(s) in "
            f"{report.files_checked} file(s) "
            f"[{len(report.rules)} rule(s)]"
        )
    return 0 if report.ok else 1
