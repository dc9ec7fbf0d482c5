"""``repro.analysis`` — repro lint: machine-checked codebase contracts.

The repo's correctness rests on conventions no unit test can see from
the outside: dispatch goes through the ``get_*`` lookups instead of
string comparisons, candidate ensembles replay byte-for-byte at
any worker count, ``_CACHE_VERSION`` bumps whenever serialized chunk
fields change, and process pools are built only in the execution layer.
This package
turns those conventions into an AST-based invariant checker:

* **Rules** — a fixed tuple, :data:`RULES`, of :class:`LintRule`
  records (canonical id, code, aliases, visitor); ``--select`` and
  ``--ignore`` pick from it by any of those names, and an unknown name
  raises :class:`UnknownRuleError` with a did-you-mean suggestion.
  Every rule in the tuple runs in ``repro lint``, is listed by
  ``repro lint --list``, and is enrolled in the fixture-based test
  harness.
* **Harness** — one parse and one AST walk per file no matter how many
  rules run (:mod:`repro.analysis.visitor`); a new rule is a
  ~30-line :class:`RuleVisitor` subclass plus one :data:`RULES` entry.
* **Engine** — file/package walking, ``--select``/``--ignore`` rule
  selection, ``# repro-lint: disable=...`` pragmas, and human/JSON/GitHub
  output.

Run it as ``python -m repro lint src/`` (see
:mod:`repro.cli.lint_cmd`).
"""

from __future__ import annotations

from repro.analysis.engine import (
    LintReport,
    iter_python_files,
    lint_paths,
    lint_source,
    select_rules,
)
from repro.analysis.findings import LintFinding, format_findings
from repro.analysis.rules import RULES, LintRule, UnknownRuleError
from repro.analysis.visitor import ModuleContext, RuleVisitor, run_rules

__all__ = [
    "LintFinding",
    "LintReport",
    "LintRule",
    "ModuleContext",
    "RULES",
    "RuleVisitor",
    "UnknownRuleError",
    "format_findings",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "run_rules",
    "select_rules",
]
