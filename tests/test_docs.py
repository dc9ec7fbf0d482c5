"""Docs check: README/ARCHITECTURE code blocks reference real names.

Documentation drifts when the API moves under it.  These tests parse
every fenced code block in ``README.md`` and ``docs/ARCHITECTURE.md``,
plus the shell script ``examples/cli_workbench.sh``:

* every ``repro`` import statement in a python block must actually
  import — the module must exist and every imported name must be an
  attribute of it;
* every python block must at least be syntactically valid Python;
* every ``repro <subcommand>`` / ``python -m repro <subcommand>``
  incantation in a shell block, and every ``$REPRO <subcommand>`` line
  of the example script, must name a real CLI subcommand.

The CI ``docs-check`` job runs this module on its own.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = ("README.md", "docs/ARCHITECTURE.md")
SHELL_SCRIPTS = ("examples/cli_workbench.sh",)

_FENCE_RE = re.compile(r"```(\w*)\n(.*?)```", re.S)
_CLI_RE = re.compile(
    r"(?:python -m repro|\$REPRO|(?<![\w/.-])repro)\s+(--?\w[\w-]*|\w+)"
)


def _blocks(document, *, language):
    text = (REPO_ROOT / document).read_text(encoding="utf-8")
    return [
        body
        for fence_language, body in _FENCE_RE.findall(text)
        if fence_language == language
    ]


def _python_blocks(document):
    blocks = _blocks(document, language="python")
    assert blocks, f"{document} has no ```python blocks to check"
    return blocks


@pytest.mark.parametrize("document", DOCUMENTS)
def test_python_blocks_parse(document):
    for i, block in enumerate(_python_blocks(document)):
        try:
            ast.parse(block)
        except SyntaxError as exc:
            pytest.fail(
                f"{document} python block #{i} is not valid Python: {exc}"
            )


@pytest.mark.parametrize("document", DOCUMENTS)
def test_repro_imports_in_code_blocks_resolve(document):
    checked = 0
    for block in _python_blocks(document):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom):
                if not (node.module or "").startswith("repro"):
                    continue
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (
                        f"{document}: `from {node.module} import "
                        f"{alias.name}` references a missing name"
                    )
                    checked += 1
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro"):
                        importlib.import_module(alias.name)
                        checked += 1
    assert checked > 0, f"{document} code blocks never import from repro"


def _shell_sources(document):
    if document in SHELL_SCRIPTS:
        return [(REPO_ROOT / document).read_text(encoding="utf-8")]
    return [
        block
        for language in ("bash", "sh", "console")
        for block in _blocks(document, language=language)
    ]


@pytest.mark.parametrize("document", DOCUMENTS + SHELL_SCRIPTS)
def test_cli_incantations_name_real_subcommands(document):
    parser = build_parser()
    known = set(parser.repro_subparsers)
    mentions = [
        token
        for source in _shell_sources(document)
        for token in _CLI_RE.findall(source)
        if not token.startswith("-")
    ]
    unknown = sorted(set(mentions) - known)
    assert not unknown, (
        f"{document} mentions CLI subcommands that do not exist: "
        f"{unknown} (known: {sorted(known)})"
    )
