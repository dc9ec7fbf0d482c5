"""The lint engine: file walking, rule selection, and report assembly.

:func:`lint_paths` is the library entry point behind ``repro lint``: it
expands files/directories into a deterministic ``.py`` file list, parses
each file once, runs the selected rules through the shared visitor
harness (:mod:`repro.analysis.visitor`), and returns a
:class:`LintReport`.  Syntax errors surface as findings under the
reserved ``syntax-error`` pseudo-rule (code ``E000``) instead of
aborting the run, so one broken file cannot hide the rest of the tree.
Rules are picked from the fixed :data:`~repro.analysis.rules.RULES`
tuple by key, code or alias (:func:`select_rules`).
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from pathlib import Path

from repro._registry import normalize, unknown_name_error
from repro.analysis.findings import LintFinding
from repro.analysis.rules import RULES, UnknownRuleError
from repro.analysis.visitor import ModuleContext, run_rules
from repro.exceptions import InvalidParameterError

__all__ = [
    "LintReport",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "select_rules",
]

# Directory names never worth descending into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}

# Pseudo-rule identifying unparseable files in reports.
_SYNTAX_RULE = "syntax-error"
_SYNTAX_CODE = "E000"


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run.

    Attributes
    ----------
    findings:
        Every finding, sorted by location.
    files_checked:
        Number of python files parsed.
    rules:
        Canonical keys of the rules that ran.
    """

    findings: tuple
    files_checked: int
    rules: tuple

    @property
    def ok(self):
        """True when the run produced no findings."""
        return not self.findings


# Normalized key/code/alias -> canonical rule key.
_SPELLINGS = {name: rule.key for rule in RULES for name in rule.names}


def _rule_key(name):
    """Canonical key of a rule id, code or alias."""
    key = _SPELLINGS.get(normalize(name))
    if key is None:
        raise unknown_name_error(
            UnknownRuleError, "lint rule", name, _SPELLINGS
        )
    return key


def select_rules(select=None, ignore=None):
    """Resolve ``--select``/``--ignore`` name lists to LintRule objects.

    Both accept iterables of names/codes/aliases, matched case- and
    separator-insensitively (or one comma-separated string).
    Unknown names raise :class:`~repro.analysis.rules.UnknownRuleError`
    with a did-you-mean suggestion.  Returns rules in :data:`RULES`
    order.
    """

    def _resolve_list(value, option):
        if value is None:
            return None
        if isinstance(value, str):
            value = value.split(",")
        names = [token for token in (str(v).strip() for v in value) if token]
        if not names:
            raise InvalidParameterError(
                f"{option} needs at least one rule name; the rules are "
                f"{sorted(rule.key for rule in RULES)}"
            )
        return {_rule_key(name) for name in names}

    selected = _resolve_list(select, "--select")
    ignored = _resolve_list(ignore, "--ignore") or set()
    rules = tuple(
        rule for rule in RULES
        if (selected is None or rule.key in selected)
        and rule.key not in ignored
    )
    if not rules:
        raise InvalidParameterError(
            "the --select/--ignore combination leaves no lint rules to run"
        )
    return rules


def iter_python_files(paths, *, exclude=()):
    """Expand files/directories into a sorted, deduplicated ``.py`` list.

    ``exclude`` holds glob patterns matched against each file's
    posix-style path (both as given and repo-relative), e.g.
    ``tests/fixtures/*``.  Missing paths raise
    :class:`~repro.exceptions.InvalidParameterError`.
    """
    files = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not any(p in _SKIP_DIRS for p in candidate.parts):
                    files.add(candidate)
        elif path.is_file():
            files.add(path)
        else:
            raise InvalidParameterError(
                f"lint path {str(path)!r} does not exist"
            )

    def _excluded(path):
        posix = path.as_posix()
        return any(
            fnmatch.fnmatch(posix, pattern)
            or fnmatch.fnmatch(posix, f"*/{pattern}")
            for pattern in exclude
        )

    return sorted(
        (path for path in files if not _excluded(path)),
        key=lambda p: p.as_posix(),
    )


def lint_source(source, *, path="<string>", rules=RULES):
    """Lint one source string; returns sorted findings."""
    try:
        ctx = ModuleContext(path, source)
    except SyntaxError as exc:
        return [LintFinding(
            path=str(path),
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1 if exc.offset else 1,
            code=_SYNTAX_CODE,
            rule=_SYNTAX_RULE,
            message=f"file does not parse: {exc.msg}",
        )]
    return run_rules(ctx, rules)


def lint_paths(paths, *, select=None, ignore=None, exclude=()):
    """Lint files/directories; returns a :class:`LintReport`.

    Parameters mirror the CLI: ``select``/``ignore`` are rule-name lists
    (see :func:`select_rules`) and ``exclude`` holds path glob patterns.
    """
    rules = select_rules(select, ignore)
    findings = []
    files = iter_python_files(paths, exclude=exclude)
    for file_path in files:
        source = file_path.read_text(encoding="utf-8")
        findings.extend(
            lint_source(source, path=file_path.as_posix(), rules=rules)
        )
    return LintReport(
        findings=tuple(sorted(findings)),
        files_checked=len(files),
        rules=tuple(rule.key for rule in rules),
    )
