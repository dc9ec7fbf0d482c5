"""The shared AST visitor harness every lint rule runs on.

One parse and one tree walk per file, no matter how many rules are
active: the harness builds a :class:`ModuleContext` (source, AST, a
parent map, and the ``# repro-lint: disable=...`` pragma table), then
dispatches every node to each rule's ``visit_<NodeType>`` handlers in a
single pass.  A new rule is a :class:`RuleVisitor` subclass — typically
~30 lines: a couple of handlers calling :meth:`RuleVisitor.add`, plus an
optional :meth:`RuleVisitor.finalize` for whole-module invariants — and
one :class:`~repro.analysis.rules.LintRule` record in
:data:`~repro.analysis.rules.RULES`.

Suppression pragmas::

    risky_line()  # repro-lint: disable=exception-policy -- why it is ok

disable one or more rules (by id, code, or alias; ``all`` disables every
rule) on that line; ``# repro-lint: disable-file=<rules>`` within the
first ten lines disables them for the whole file.
"""

from __future__ import annotations

import ast
import re

from repro._registry import normalize
from repro.analysis.findings import LintFinding

__all__ = ["ModuleContext", "RuleVisitor", "run_rules"]

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)\s*=\s*([\w,\s._-]+)"
)

# disable-file pragmas must appear near the top of the module, so a
# reader learns about whole-file suppressions before the code starts.
_FILE_PRAGMA_WINDOW = 10

_ALL = "all"


def _pragma_rules(spec):
    """Normalize a pragma's rule list (ids, codes, aliases or ``all``).

    Names matching no rule are kept and simply never match: a stale
    pragma must not crash the run.
    """
    return {normalize(token) for token in spec.split(",")} - {""}


def _parse_pragmas(lines):
    """Extract (per-line, whole-file) suppression tables from source."""
    per_line = {}
    whole_file = set()
    for line_no, line in enumerate(lines, 1):
        if "repro-lint" not in line:
            continue
        for kind, spec in _PRAGMA_RE.findall(line):
            names = _pragma_rules(spec)
            if kind == "disable-file" and line_no <= _FILE_PRAGMA_WINDOW:
                whole_file |= names
            else:
                per_line.setdefault(line_no, set()).update(names)
    return per_line, whole_file


class ModuleContext:
    """Everything the rules need to know about one parsed module.

    Attributes
    ----------
    path:
        Display path used in findings (repo-relative when possible).
    source, lines:
        Raw text and its splitlines.
    tree:
        The parsed ``ast.Module``.
    parents:
        Node -> parent-node map over the whole tree, so handlers can ask
        for the enclosing statement without threading state through a
        walk (:meth:`statement`).
    findings:
        The accumulating :class:`~repro.analysis.findings.LintFinding`
        list (shared by every rule on this file).
    """

    def __init__(self, path, source, tree=None):
        self.path = str(path)
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source) if tree is None else tree
        self.parents = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        self._per_line, self._whole_file = _parse_pragmas(self.lines)
        self.findings = []

    def suppressed(self, rule, line):
        """Whether ``rule`` is pragma-disabled at ``line``."""
        names = self._whole_file | self._per_line.get(line, set())
        return _ALL in names or not names.isdisjoint(rule.names)

    def add(self, rule, node, message):
        """Record one finding at ``node`` unless a pragma disables it."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        if self.suppressed(rule, line):
            return
        self.findings.append(LintFinding(
            path=self.path,
            line=line,
            col=col,
            code=rule.code,
            rule=rule.key,
            message=message,
        ))

    def statement(self, node):
        """The statement ancestor of ``node`` (or the node itself)."""
        current = node
        while current is not None and not isinstance(current, ast.stmt):
            current = self.parents.get(current)
        return current


class RuleVisitor:
    """Base class for rule implementations.

    Subclasses define ``visit_<NodeType>(node)`` handlers (any subset;
    the harness only dispatches node types a handler exists for) and may
    override :meth:`finalize`, which runs once after the walk — the hook
    for module-level invariants that need the whole tree seen first.
    """

    def __init__(self, rule, ctx):
        self.rule = rule
        self.ctx = ctx

    def add(self, node, message):
        """Record one finding for this visitor's rule."""
        self.ctx.add(self.rule, node, message)

    def finalize(self):
        """Post-walk hook (default: nothing)."""


def run_rules(ctx, rules):
    """Run ``rules`` over ``ctx`` in one tree walk; returns the findings.

    Each rule's visitor sees every node (``ast.walk`` order) through its
    ``visit_<NodeType>`` handlers, then gets one :meth:`finalize` call.
    Rules whose :meth:`~repro.analysis.rules.LintRule.applies_to`
    rejects the file are skipped entirely.
    """
    visitors = [
        rule.visitor(rule, ctx)
        for rule in rules
        if rule.applies_to(ctx.path)
    ]
    # One dispatch table per node-type name, built lazily: most node
    # types have no handler in any rule and cost one dict lookup.
    dispatch = {}
    for node in ast.walk(ctx.tree):
        name = type(node).__name__
        handlers = dispatch.get(name)
        if handlers is None:
            handlers = [
                getattr(visitor, f"visit_{name}")
                for visitor in visitors
                if hasattr(visitor, f"visit_{name}")
            ]
            dispatch[name] = handlers
        for handler in handlers:
            handler(node)
    for visitor in visitors:
        visitor.finalize()
    return sorted(ctx.findings)
