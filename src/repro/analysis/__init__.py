"""``repro.analysis`` — repro lint: machine-checked codebase contracts.

The repo's correctness rests on conventions no unit test can see from
the outside: dispatch goes through the registries instead of string
comparisons (PRs 3/5/7), candidate ensembles replay byte-for-byte at
any worker count, ``_CACHE_VERSION`` bumps whenever serialized chunk
fields change, and process pools are built only in the execution layer.
This package
turns those conventions into an AST-based invariant checker, structured
the same way the runtime is:

* **Registry** — :class:`LintRule` entries under canonical ids with an
  alias table and :class:`UnknownRuleError` did-you-mean errors: the
  same :class:`~repro._registry.Registry` as the dynamics, refiner
  and executor registries.  Registering a rule enrolls
  it in ``repro lint``, ``repro lint --list``, and the fixture-based
  test harness automatically.
* **Harness** — one parse and one AST walk per file no matter how many
  rules run (:mod:`repro.analysis.visitor`); a new rule is a
  ~30-line :class:`RuleVisitor` subclass.
* **Engine** — file/package walking, ``--select``/``--ignore`` rule
  selection, ``# repro-lint: disable=...`` pragmas, human/JSON/GitHub
  output, and a committed shrink-only baseline
  (:func:`~repro.analysis.findings.apply_baseline`).

Run it as ``python -m repro lint src/`` (see
:mod:`repro.cli.lint_cmd`).
"""

from __future__ import annotations

from repro.analysis import rules as _rules
from repro.analysis.engine import (
    LintReport,
    iter_python_files,
    lint_paths,
    lint_source,
    select_rules,
)
from repro.analysis.findings import (
    LintFinding,
    apply_baseline,
    format_findings,
    load_baseline,
    write_baseline,
)
from repro.analysis.registry import (
    LintRule,
    SEVERITIES,
    UnknownRuleError,
    get_rule,
    register_rule,
    registered_rules,
    resolve_rule_name,
    unregister_rule,
)
from repro.analysis.visitor import ModuleContext, RuleVisitor, run_rules

__all__ = [
    "LintFinding",
    "LintReport",
    "LintRule",
    "ModuleContext",
    "RuleVisitor",
    "SEVERITIES",
    "UnknownRuleError",
    "apply_baseline",
    "format_findings",
    "get_rule",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "register_rule",
    "registered_rules",
    "resolve_rule_name",
    "run_rules",
    "select_rules",
    "unregister_rule",
    "write_baseline",
]

_rules.register_builtin_rules()
