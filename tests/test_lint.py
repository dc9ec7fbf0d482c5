"""The repro.analysis lint subsystem: rule set, harness, rules, CLI.

Every rule in ``RULES`` is enrolled in the fixture harness — a
known-bad and a known-good snippet under ``tests/fixtures/lint/`` must
exist and behave — so adding a rule without fixtures fails here, and a
rule that stops firing on its own bad fixture fails here too.  Also
covers rule lookup (aliases, codes, unknown-rule did-you-mean),
suppression pragmas, output formats, and the ``repro lint`` CLI's exit
codes (0 clean / 1 findings / 2 usage / 141 broken pipe).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    RULES,
    LintFinding,
    UnknownRuleError,
    format_findings,
    iter_python_files,
    lint_paths,
    lint_source,
    select_rules,
)
from repro.analysis.rules import registry_vocabulary
from repro.cli import main
from repro.exceptions import InvalidParameterError
from repro.execution import EXECUTORS

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"

BUILTIN_RULES = (
    "no-stringly-dispatch",
    "cache-version-discipline",
    "determinism-hazards",
    "exception-policy",
    "executor-discipline",
)


def _fixture(rule_key, kind):
    return FIXTURES / f"{rule_key.replace('-', '_')}_{kind}.py"


def _rule(name):
    """The one rule ``name`` (a key, code or alias) selects."""
    (rule,) = select_rules(name)
    return rule


class TestRegistry:
    def test_builtin_rules_present(self):
        assert tuple(rule.key for rule in RULES) == BUILTIN_RULES

    def test_codes_and_aliases_resolve(self):
        assert _rule("R001").key == "no-stringly-dispatch"
        assert _rule("stringly").key == "no-stringly-dispatch"
        assert _rule("r004").key == "exception-policy"
        assert _rule("determinism").key == "determinism-hazards"

    def test_resolution_normalizes_case_and_separators(self):
        assert _rule(" Executor-Discipline ").key == "executor-discipline"
        assert _rule("executor_discipline").key == "executor-discipline"
        assert _rule("EXECUTORS").key == "executor-discipline"

    def test_resolve_accepts_rule_instance(self):
        # Lookup hands back the records of RULES themselves.
        for rule in RULES:
            for name in (rule.key, rule.code, *rule.aliases):
                assert _rule(name) is rule, name

    def test_unknown_rule_error_type_and_suggestion(self):
        with pytest.raises(UnknownRuleError) as excinfo:
            select_rules("exception-polcy")
        assert isinstance(excinfo.value, InvalidParameterError)
        assert isinstance(excinfo.value, ValueError)
        assert isinstance(excinfo.value, KeyError)
        assert "did you mean 'exception-policy'" in str(excinfo.value)

    def test_unknown_rule_lists_registry(self):
        with pytest.raises(UnknownRuleError) as excinfo:
            select_rules(None, "no-such-rule")
        message = str(excinfo.value)
        assert message.startswith("unknown lint rule 'no-such-rule'")
        assert "no-stringly-dispatch" in message
        assert "executor-discipline" in message

    def test_every_rule_documents_itself(self):
        for rule in RULES:
            assert rule.description.strip(), rule.key
            assert rule.code and rule.code[0] in "RE", rule.key

    def test_keys_codes_and_aliases_are_unique(self):
        spellings = [name for rule in RULES for name in rule.names]
        assert len(spellings) == len(set(spellings))


class TestFixtureHarness:
    """Every registered rule ships a known-bad and a known-good fixture."""

    @pytest.mark.parametrize("rule_key", sorted(BUILTIN_RULES))
    def test_fixture_files_exist(self, rule_key):
        assert _fixture(rule_key, "bad").is_file(), rule_key
        assert _fixture(rule_key, "good").is_file(), rule_key

    @pytest.mark.parametrize("rule_key", sorted(BUILTIN_RULES))
    def test_bad_fixture_fires_the_rule(self, rule_key):
        rule = _rule(rule_key)
        path = _fixture(rule_key, "bad")
        findings = lint_source(
            path.read_text(encoding="utf-8"),
            path=path.as_posix(), rules=(rule,),
        )
        assert findings, f"{rule_key}: bad fixture produced no findings"
        assert all(f.rule == rule_key for f in findings)
        assert all(f.code == rule.code for f in findings)
        assert all(f.line > 0 and f.col > 0 for f in findings)

    @pytest.mark.parametrize("rule_key", sorted(BUILTIN_RULES))
    def test_good_fixture_is_clean(self, rule_key):
        path = _fixture(rule_key, "good")
        findings = lint_source(
            path.read_text(encoding="utf-8"),
            path=path.as_posix(), rules=(_rule(rule_key),),
        )
        assert findings == [], f"{rule_key}: good fixture was flagged"

    def test_exempt_paths_skip_the_rule(self):
        source = 'if executor == "process":\n    pass\n'
        flagged = lint_source(
            source, path="src/repro/ncp/runner.py",
            rules=(_rule("no-stringly-dispatch"),),
        )
        exempt = lint_source(
            source, path="src/repro/dynamics.py",
            rules=(_rule("no-stringly-dispatch"),),
        )
        assert flagged and exempt == []

    def test_private_registry_dicts_are_flagged_outside_the_registry(self):
        source = (
            'ppr = DYNAMICS._entries["ppr"]\n'
            'serial = EXECUTORS._aliases["serial"]\n'
            "kind = REFINERS._spec_types[spec_type]\n"
        )
        rules = (_rule("no-stringly-dispatch"),)
        flagged = lint_source(
            source, path="src/repro/ncp/runner.py", rules=rules
        )
        assert [f.line for f in flagged] == [1, 2, 3]
        assert "_entries" in flagged[0].message
        assert lint_source(
            source, path="src/repro/_registry.py", rules=rules
        ) == []

    def test_vocabulary_holds_every_executor_name(self):
        vocabulary = registry_vocabulary()
        for kind in EXECUTORS:
            assert kind.key in vocabulary
            assert set(kind.aliases) <= vocabulary, kind.key

    def test_syntax_error_becomes_a_finding(self):
        findings = lint_source("def broken(:\n", path="x.py")
        assert len(findings) == 1
        assert findings[0].rule == "syntax-error"
        assert findings[0].code == "E000"


class TestPragmas:
    BAD_LINE = "picks = np.random.choice(graph, 3)"

    def test_line_pragma_suppresses(self):
        rules = (_rule("determinism-hazards"),)
        assert lint_source(self.BAD_LINE + "\n", rules=rules)
        assert lint_source(
            self.BAD_LINE + "  # repro-lint: disable=determinism-hazards\n",
            rules=rules,
        ) == []

    def test_pragma_accepts_aliases_and_codes(self):
        rules = (_rule("determinism-hazards"),)
        for name in ("determinism", "R003", "all"):
            assert lint_source(
                f"{self.BAD_LINE}  # repro-lint: disable={name}\n",
                rules=rules,
            ) == [], name

    def test_pragma_allows_a_trailing_justification(self):
        # The form the visitor docstring documents: the rule list stops
        # at ``--``, so the justification is not read as a rule name.
        rules = (_rule("determinism-hazards"),)
        bad = "np.random.choice(g, 3)"
        assert lint_source(
            f"{bad}  # repro-lint: disable=determinism -- why it is ok\n",
            rules=rules,
        ) == []
        assert [f.code for f in lint_source(bad + "\n", rules=rules)] == [
            "R003"
        ]

    def test_pragma_only_covers_its_line(self):
        source = (
            f"{self.BAD_LINE}  # repro-lint: disable=determinism\n"
            f"{self.BAD_LINE}\n"
        )
        findings = lint_source(
            source, rules=(_rule("determinism-hazards"),)
        )
        assert [f.line for f in findings] == [2]

    def test_disable_file_pragma(self):
        source = (
            "# repro-lint: disable-file=determinism-hazards\n"
            f"{self.BAD_LINE}\n"
            f"{self.BAD_LINE}\n"
        )
        assert lint_source(
            source, rules=(_rule("determinism-hazards"),)
        ) == []

    def test_disable_file_pragma_must_be_near_the_top(self):
        source = "\n" * 20 + (
            "# repro-lint: disable-file=determinism-hazards\n"
            f"{self.BAD_LINE}\n"
        )
        findings = lint_source(
            source, rules=(_rule("determinism-hazards"),)
        )
        assert findings


class TestSelectionAndWalker:
    def test_select_rules_default_is_everything(self):
        assert select_rules() == RULES

    def test_select_and_ignore_compose(self):
        picked = select_rules("R001,executors", None)
        assert {r.key for r in picked} == {
            "no-stringly-dispatch", "executor-discipline",
        }
        remaining = select_rules(None, "no-stringly-dispatch")
        assert "no-stringly-dispatch" not in {r.key for r in remaining}

    def test_select_unknown_rule_raises(self):
        with pytest.raises(UnknownRuleError):
            select_rules("no-such-rule", None)

    def test_empty_selection_raises(self):
        with pytest.raises(InvalidParameterError):
            select_rules("R001", "R001")

    def test_iter_python_files_walks_and_excludes(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "skipme.py").write_text("x = 1\n")
        files = iter_python_files([tmp_path], exclude=("*skipme*",))
        assert [f.name for f in files] == ["a.py"]
        assert "__pycache__" not in files[0].parts

    def test_missing_path_raises(self):
        with pytest.raises(InvalidParameterError):
            iter_python_files(["no/such/dir"])

    def test_lint_paths_reports_clean_tree(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text('"""Clean module."""\nVALUE = 1\n')
        report = lint_paths([target])
        assert report.ok
        assert report.files_checked == 1
        assert report.rules == BUILTIN_RULES


class TestOutputFormats:
    FINDING = LintFinding(
        path="src/x.py", line=3, col=7, code="R003",
        rule="determinism-hazards", message="wall clock",
    )

    def test_human_format(self):
        text = format_findings([self.FINDING], "human")
        assert text == (
            "src/x.py:3:7: R003 [determinism-hazards] wall clock"
        )

    def test_json_format_roundtrips(self):
        payload = json.loads(format_findings([self.FINDING], "json"))
        assert payload["schema"] == "repro.analysis/findings/v1"
        assert payload["findings"][0]["rule"] == "determinism-hazards"
        assert payload["findings"][0]["line"] == 3

    def test_github_format(self):
        text = format_findings([self.FINDING], "github")
        assert text == (
            "::error file=src/x.py,line=3,col=7,"
            "title=R003 determinism-hazards::wall clock"
        )

    def test_unknown_format_rejected(self):
        with pytest.raises(InvalidParameterError):
            format_findings([self.FINDING], "xml")


class TestLintCli:
    """Exit codes: 0 clean, 1 findings, 2 usage errors, 141 broken pipe."""

    def test_clean_path_exits_0(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text('"""Clean."""\nVALUE = 1\n')
        assert main(["lint", str(target)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_findings_exit_1(self, capsys):
        bad = _fixture("exception-policy", "bad")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "[exception-policy]" in out

    def test_unknown_rule_exits_2(self, capsys):
        bad = _fixture("exception-policy", "bad")
        assert main(["lint", str(bad), "--select", "nope"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_no_paths_exits_2(self, capsys):
        assert main(["lint"]) == 2
        assert "at least one file" in capsys.readouterr().err

    def test_missing_path_exits_2(self, capsys):
        assert main(["lint", "no/such/path.py"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_list_documents_every_rule(self, capsys):
        assert main(["lint", "--list"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.key in out
            assert rule.code in out
            assert rule.description.split(",")[0][:40] in out

    def test_select_limits_rules(self, capsys):
        bad = _fixture("exception-policy", "bad")
        assert main([
            "lint", str(bad), "--select", "no-stringly-dispatch",
        ]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_github_format_annotations(self, capsys):
        bad = _fixture("executor-discipline", "bad")
        assert main(["lint", str(bad), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "title=R007 executor-discipline::" in out

    def test_json_format(self, capsys):
        bad = _fixture("determinism-hazards", "bad")
        assert main(["lint", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert all(
            f["rule"] == "determinism-hazards"
            for f in payload["findings"]
        )

    def test_repo_tree_is_clean(self):
        # The merged tree holds the acceptance bar: `repro lint src/`
        # exits 0.
        report = lint_paths([REPO_ROOT / "src"])
        assert report.ok, [f.format_human() for f in report.findings]

    def test_broken_pipe_exits_141(self):
        # Spawn unbuffered so the first print hits the dead pipe inside
        # run(), exercising main()'s BrokenPipeError -> 141 convention
        # on the new lint output path.
        reader, writer = os.pipe()
        os.close(reader)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        try:
            proc = subprocess.run(
                [sys.executable, "-u", "-m", "repro", "lint", "--list"],
                stdout=writer, stderr=subprocess.PIPE, env=env,
                cwd=REPO_ROOT, timeout=120,
            )
        finally:
            os.close(writer)
        assert proc.returncode == 141, proc.stderr.decode()
