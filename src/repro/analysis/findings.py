"""Structured lint findings and their output formats.

A :class:`LintFinding` is one violation at one source location.  The
module also owns the three output formats (``human``, ``json``,
``github``).  Every finding is an error: any finding fails a lint run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.exceptions import InvalidParameterError

__all__ = [
    "FINDINGS_SCHEMA",
    "LintFinding",
    "OUTPUT_FORMATS",
    "format_findings",
]

FINDINGS_SCHEMA = "repro.analysis/findings/v1"
OUTPUT_FORMATS = ("human", "json", "github")


@dataclass(frozen=True, order=True)
class LintFinding:
    """One lint violation: a rule firing at a source location.

    Orders by (path, line, col, code) so reports are deterministic
    regardless of rule execution order.
    """

    path: str
    line: int
    col: int
    code: str
    rule: str
    message: str

    def to_dict(self):
        """JSON-ready mapping (the ``--format json`` record)."""
        return {
            "rule": self.rule,
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": "error",
            "message": self.message,
        }

    def format_human(self):
        """One ``path:line:col: CODE [rule] message`` report line."""
        return (
            f"{self.path}:{self.line}:{self.col}: {self.code} "
            f"[{self.rule}] {self.message}"
        )

    def format_github(self):
        """One GitHub Actions ``::error file=...`` annotation line."""
        # Workflow-command message payloads are newline-escaped.
        message = self.message.replace("%", "%25").replace(
            "\n", "%0A"
        )
        return (
            f"::error file={self.path},line={self.line},"
            f"col={self.col},title={self.code} {self.rule}::{message}"
        )


def format_findings(findings, fmt="human"):
    """Render findings in an :data:`OUTPUT_FORMATS` style; returns str."""
    if fmt not in OUTPUT_FORMATS:
        raise InvalidParameterError(
            f"unknown lint output format {fmt!r}; choose from "
            f"{OUTPUT_FORMATS}"
        )
    findings = sorted(findings)
    if fmt == "json":
        return json.dumps(
            {
                "schema": FINDINGS_SCHEMA,
                "findings": [f.to_dict() for f in findings],
            },
            indent=2,
        )
    if fmt == "github":
        return "\n".join(f.format_github() for f in findings)
    return "\n".join(f.format_human() for f in findings)
