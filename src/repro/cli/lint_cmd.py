"""``repro lint`` — run the AST invariant checker over the codebase.

Exit codes follow the linter convention: 0 on a clean tree, 1 when
findings survive the baseline, 2 on usage errors (unknown rules, missing
paths — any :class:`~repro.exceptions.ReproError`), and the shared
BrokenPipeError -> 141 convention of :func:`repro.cli.main` holds for
every output path.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import (
    format_findings,
    lint_paths,
    load_baseline,
    registered_rules,
    write_baseline,
)
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
             "(default: every registered rule; see --list)",
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
        "--baseline",
        metavar="PATH",
        default=None,
        help="shrink-only baseline file: known findings listed there are "
             "forgiven (new ones still fail); see --write-baseline",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the --baseline path (or "
             "lint-baseline.json) instead of failing on them",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_rules",
        help="list every registered rule (id, code, severity, one-line "
             "description, aliases) and exit",
    )
    parser.set_defaults(run=run)
    return parser


def _run_list():
    rows = [
        [rule.key, rule.code, rule.severity, rule.description,
         ", ".join(rule.aliases)]
        for rule in registered_rules().values()
    ]
    print(format_table(
        ["rule", "code", "severity", "description", "aliases"],
        rows,
        title=f"registered lint rules ({len(rows)})",
    ))
    return 0


def run(args):
    """Execute ``repro lint`` (see :func:`configure_parser`)."""
    if args.list_rules:
        return _run_list()
    if not args.paths:
        raise InvalidParameterError(
            "lint needs at least one file or directory to check "
            "(or --list to show the registered rules)"
        )
    baseline = None
    if args.baseline is not None and not args.write_baseline:
        baseline = load_baseline(args.baseline)
    report = lint_paths(
        args.paths,
        select=args.select,
        ignore=args.ignore,
        exclude=tuple(args.exclude),
        baseline=baseline,
    )
    if args.write_baseline:
        target = Path(args.baseline or "lint-baseline.json")
        write_baseline(target, report.all_findings())
        print(
            f"wrote {target} ({len(report.all_findings())} finding(s) "
            f"across {report.files_checked} file(s))"
        )
        return 0
    output = format_findings(report.findings, args.format)
    if output:
        print(output)
    if args.format == "human":
        summary = (
            f"{len(report.findings)} finding(s) in "
            f"{report.files_checked} file(s) "
            f"[{len(report.rules)} rule(s)"
        )
        if report.baselined:
            summary += f"; {len(report.baselined)} baselined"
        summary += "]"
        print(summary)
        for key, surplus in report.stale_baseline.items():
            print(
                f"note: baseline entry {key!r} is stale by {surplus} "
                "(the tree improved; regenerate with --write-baseline)"
            )
    return 0 if report.ok else 1
