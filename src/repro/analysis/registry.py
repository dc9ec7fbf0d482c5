"""The LintRule registry: canonical rule ids, aliases, did-you-mean.

The same :class:`~repro._registry.Registry` as the dynamics, refiner
and executor registries: frozen records under canonical keys, an
alias table (a rule's ``code`` is a spelling too), and an unknown-name
error that inherits both :class:`~repro.exceptions.InvalidParameterError`
(hence ``ValueError``) and ``KeyError`` with a did-you-mean suggestion.

Registering a rule is enough to enroll it in the fixture-based test
harness (``tests/test_lint.py`` parametrizes over
:func:`registered_rules`), the ``repro lint --list`` output, and every
``repro lint`` run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._registry import Registry
from repro.exceptions import InvalidParameterError

__all__ = [
    "LintRule",
    "SEVERITIES",
    "UnknownRuleError",
    "get_rule",
    "register_rule",
    "registered_rules",
    "resolve_rule_name",
    "unregister_rule",
]

# Finding severities, most severe first.  Both fail a lint run; the
# split only affects how CI renders the annotation (::error / ::warning).
SEVERITIES = ("error", "warning")


class UnknownRuleError(InvalidParameterError, KeyError):
    """Raised for a lint-rule name that is not in the registry.

    Inherits both :class:`~repro.exceptions.InvalidParameterError` (hence
    ``ValueError``) and ``KeyError``, matching the other registry errors
    (:class:`~repro.dynamics.UnknownDynamicsError`,
    :class:`~repro.refine.UnknownRefinerError`), so callers validating
    either way keep working.
    """

    __str__ = Exception.__str__


@dataclass(frozen=True)
class LintRule:
    """One invariant checker: a visitor class behind a canonical id.

    Attributes
    ----------
    key:
        Canonical registry id (``"no-stringly-dispatch"``, ...).
    code:
        Short stable code (``"R001"``) shown in findings and usable as a
        ``--select``/``--ignore`` alias.
    description:
        One-line summary shown by ``repro lint --list`` and in the docs.
    aliases:
        Accepted alternative names (the ``code`` is always an alias).
    severity:
        Default severity of this rule's findings (``"error"`` or
        ``"warning"``).
    visitor:
        :class:`~repro.analysis.visitor.RuleVisitor` subclass
        implementing the check (``visit_<NodeType>`` handlers plus an
        optional ``finalize``).
    exempt:
        Path substrings (posix-style) naming files the rule never runs
        on — the registry modules themselves are exempt from
        ``no-stringly-dispatch``, for example.
    """

    key: str
    code: str
    description: str
    visitor: type
    aliases: tuple = ()
    severity: str = "error"
    exempt: tuple = ()

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise InvalidParameterError(
                f"rule {self.key!r}: severity must be one of {SEVERITIES}, "
                f"got {self.severity!r}"
            )

    def applies_to(self, path):
        """Whether the rule runs on ``path`` (checks :attr:`exempt`)."""
        posix = str(path).replace("\\", "/")
        return not any(part in posix for part in self.exempt)


RULES = Registry(
    "lint rule", LintRule, UnknownRuleError, spellings=("code",)
)
register_rule = RULES.register
unregister_rule = RULES.unregister
resolve_rule_name = RULES.resolve
get_rule = RULES.get
registered_rules = RULES.registered
