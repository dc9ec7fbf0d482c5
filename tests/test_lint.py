"""The repro.analysis lint subsystem: registry, harness, rules, CLI.

Mirrors the per-backend parity pattern of ``tests/test_backends.py``:
every registered rule is auto-enrolled in the fixture harness — a
known-bad and a known-good snippet under ``tests/fixtures/lint/`` must
exist and behave — so adding a rule without fixtures fails here, and a
rule that stops firing on its own bad fixture fails here too.  Also
covers the registry semantics (aliases, codes, unknown-rule
did-you-mean, third-party extension rules), suppression pragmas, the
shrink-only baseline, output formats, and the ``repro lint`` CLI's exit
codes (0 clean / 1 findings / 2 usage / 141 broken pipe).
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    LintFinding,
    LintRule,
    RuleVisitor,
    UnknownRuleError,
    apply_baseline,
    format_findings,
    get_rule,
    iter_python_files,
    lint_paths,
    lint_source,
    load_baseline,
    register_rule,
    registered_rules,
    resolve_rule_name,
    select_rules,
    unregister_rule,
    write_baseline,
)
from repro.analysis.rules import registry_vocabulary
from repro.backends import get_backend, register_backend, unregister_backend
from repro.cli import main
from repro.exceptions import InvalidParameterError

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


class TestRegistry:
    def test_builtin_rules_present(self):
        assert set(registered_rules()) >= set(BUILTIN_RULES)

    def test_codes_and_aliases_resolve(self):
        assert resolve_rule_name("R001") == "no-stringly-dispatch"
        assert resolve_rule_name("stringly") == "no-stringly-dispatch"
        assert resolve_rule_name("r004") == "exception-policy"
        assert resolve_rule_name("determinism") == "determinism-hazards"

    def test_resolution_normalizes_case_and_separators(self):
        assert resolve_rule_name(" Executor-Discipline ") == (
            "executor-discipline"
        )
        assert resolve_rule_name("executor_discipline") == (
            "executor-discipline"
        )
        assert resolve_rule_name("EXECUTORS") == "executor-discipline"

    def test_resolve_accepts_rule_instance(self):
        rule = get_rule("exception-policy")
        assert resolve_rule_name(rule) == "exception-policy"
        assert get_rule(rule) is rule

    def test_unknown_rule_error_type_and_suggestion(self):
        with pytest.raises(UnknownRuleError) as excinfo:
            get_rule("exception-polcy")
        assert isinstance(excinfo.value, InvalidParameterError)
        assert isinstance(excinfo.value, ValueError)
        assert isinstance(excinfo.value, KeyError)
        assert "did you mean 'exception-policy'" in str(excinfo.value)

    def test_unknown_rule_lists_registry(self):
        with pytest.raises(UnknownRuleError) as excinfo:
            resolve_rule_name("no-such-rule")
        message = str(excinfo.value)
        assert "no-stringly-dispatch" in message
        assert "executor-discipline" in message

    def test_every_rule_documents_itself(self):
        for key, rule in registered_rules().items():
            assert rule.description.strip(), key
            assert rule.code and rule.code[0] in "RE", key
            assert rule.severity in ("error", "warning"), key

    def test_register_unregister_extension_rule(self):
        class NoEvalVisitor(RuleVisitor):
            def visit_Call(self, node):
                if getattr(node.func, "id", None) == "eval":
                    self.add(node, "eval() is banned")

        rule = LintRule(
            key="no-eval",
            code="X900",
            description="third-party example: ban eval()",
            aliases=("banned-eval",),
            visitor=NoEvalVisitor,
        )
        register_rule(rule)
        try:
            assert resolve_rule_name("x900") == "no-eval"
            assert resolve_rule_name("banned-eval") == "no-eval"
            findings = lint_source(
                "eval('1+1')\n", rules=(get_rule("no-eval"),)
            )
            assert [f.rule for f in findings] == ["no-eval"]
        finally:
            unregister_rule("no-eval")
        with pytest.raises(UnknownRuleError):
            get_rule("no-eval")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(InvalidParameterError):
            register_rule(get_rule("executor-discipline"))

    def test_invalid_severity_rejected(self):
        with pytest.raises(InvalidParameterError):
            LintRule(
                key="broken", code="X901", description="bad severity",
                visitor=RuleVisitor, severity="fatal",
            )


class TestFixtureHarness:
    """Every registered rule ships a known-bad and a known-good fixture."""

    @pytest.mark.parametrize("rule_key", sorted(BUILTIN_RULES))
    def test_fixture_files_exist(self, rule_key):
        assert _fixture(rule_key, "bad").is_file(), rule_key
        assert _fixture(rule_key, "good").is_file(), rule_key

    @pytest.mark.parametrize("rule_key", sorted(BUILTIN_RULES))
    def test_bad_fixture_fires_the_rule(self, rule_key):
        rule = get_rule(rule_key)
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
            path=path.as_posix(), rules=(get_rule(rule_key),),
        )
        assert findings == [], f"{rule_key}: good fixture was flagged"

    def test_exempt_paths_skip_the_rule(self):
        source = 'if backend == "scalar":\n    pass\n'
        flagged = lint_source(
            source, path="src/repro/ncp/runner.py",
            rules=(get_rule("no-stringly-dispatch"),),
        )
        exempt = lint_source(
            source, path="src/repro/dynamics.py",
            rules=(get_rule("no-stringly-dispatch"),),
        )
        assert flagged and exempt == []

    def test_vocabulary_tracks_later_registrations(self):
        registry_vocabulary()  # a first read must not freeze the names
        source = 'if backend == "lint_probe_alias":\n    pass\n'
        rules = (get_rule("no-stringly-dispatch"),)
        path = "src/repro/ncp/runner.py"
        register_backend(dataclasses.replace(
            get_backend("numpy"), key="lint_probe",
            aliases=("lint_probe_alias",),
        ))
        try:
            assert lint_source(source, path=path, rules=rules)
        finally:
            unregister_backend("lint_probe")
        assert lint_source(source, path=path, rules=rules) == []

    def test_syntax_error_becomes_a_finding(self):
        findings = lint_source("def broken(:\n", path="x.py")
        assert len(findings) == 1
        assert findings[0].rule == "syntax-error"
        assert findings[0].code == "E000"


class TestPragmas:
    BAD_LINE = "picks = np.random.choice(graph, 3)"

    def test_line_pragma_suppresses(self):
        rules = (get_rule("determinism-hazards"),)
        assert lint_source(self.BAD_LINE + "\n", rules=rules)
        assert lint_source(
            self.BAD_LINE + "  # repro-lint: disable=determinism-hazards\n",
            rules=rules,
        ) == []

    def test_pragma_accepts_aliases_and_codes(self):
        rules = (get_rule("determinism-hazards"),)
        for name in ("determinism", "R003", "all"):
            assert lint_source(
                f"{self.BAD_LINE}  # repro-lint: disable={name}\n",
                rules=rules,
            ) == [], name

    def test_pragma_only_covers_its_line(self):
        source = (
            f"{self.BAD_LINE}  # repro-lint: disable=determinism\n"
            f"{self.BAD_LINE}\n"
        )
        findings = lint_source(
            source, rules=(get_rule("determinism-hazards"),)
        )
        assert [f.line for f in findings] == [2]

    def test_disable_file_pragma(self):
        source = (
            "# repro-lint: disable-file=determinism-hazards\n"
            f"{self.BAD_LINE}\n"
            f"{self.BAD_LINE}\n"
        )
        assert lint_source(
            source, rules=(get_rule("determinism-hazards"),)
        ) == []

    def test_disable_file_pragma_must_be_near_the_top(self):
        source = "\n" * 20 + (
            "# repro-lint: disable-file=determinism-hazards\n"
            f"{self.BAD_LINE}\n"
        )
        findings = lint_source(
            source, rules=(get_rule("determinism-hazards"),)
        )
        assert findings


class TestSelectionAndWalker:
    def test_select_rules_default_is_everything(self):
        assert {r.key for r in select_rules()} == set(registered_rules())

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
        assert set(report.rules) == set(registered_rules())


class TestBaseline:
    def _finding(self, line, rule="exception-policy", path="pkg/mod.py"):
        return LintFinding(
            path=path, line=line, col=1, code="R004", rule=rule,
            message="m", severity="error",
        )

    def test_apply_baseline_forgives_and_reports_stale(self):
        findings = [self._finding(1), self._finding(2)]
        baseline = {"pkg/mod.py::exception-policy": 3}
        fresh, forgiven, stale = apply_baseline(findings, baseline)
        assert fresh == []
        assert len(forgiven) == 2
        assert stale == {"pkg/mod.py::exception-policy": 1}

    def test_apply_baseline_surfaces_new_findings(self):
        findings = [self._finding(1), self._finding(2), self._finding(3)]
        baseline = {"pkg/mod.py::exception-policy": 1}
        fresh, forgiven, stale = apply_baseline(findings, baseline)
        assert len(fresh) == 2 and len(forgiven) == 1 and stale == {}

    def test_write_load_roundtrip(self, tmp_path):
        target = tmp_path / "baseline.json"
        write_baseline(target, [self._finding(1), self._finding(9)])
        assert load_baseline(target) == {
            "pkg/mod.py::exception-policy": 2,
        }

    def test_load_rejects_missing_and_malformed(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            load_baseline(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InvalidParameterError):
            load_baseline(bad)
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"schema": "other/v9", "entries": {}}))
        with pytest.raises(InvalidParameterError):
            load_baseline(wrong)


class TestOutputFormats:
    FINDING = LintFinding(
        path="src/x.py", line=3, col=7, code="R003",
        rule="determinism-hazards", message="wall clock", severity="error",
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
        for key, rule in registered_rules().items():
            assert key in out
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

    def test_baseline_workflow(self, tmp_path, capsys):
        bad = _fixture("cache-version-discipline", "bad")
        baseline = tmp_path / "baseline.json"
        # Write the baseline, then the same tree lints clean against it.
        assert main([
            "lint", str(bad), "--baseline", str(baseline),
            "--write-baseline",
        ]) == 0
        assert main([
            "lint", str(bad), "--baseline", str(baseline),
        ]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out
        # A new violation is NOT forgiven by the old baseline.
        grown = tmp_path / "grown.py"
        grown.write_text(
            bad.read_text(encoding="utf-8")
            + "\n\ndef another_cache_key(x):\n    return str(x)\n"
        )
        assert main([
            "lint", str(grown), "--baseline", str(baseline),
        ]) == 1

    def test_stale_baseline_is_reported(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text('"""Clean."""\nVALUE = 1\n')
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "schema": "repro.analysis/lint-baseline/v1",
            "entries": {f"{clean.as_posix()}::exception-policy": 2},
        }))
        assert main(["lint", str(clean), "--baseline", str(baseline)]) == 0
        assert "stale by 2" in capsys.readouterr().out

    def test_repo_tree_is_clean(self):
        # The merged tree holds the acceptance bar: `repro lint src/`
        # exits 0 with the committed (empty-or-shrinking) baseline.
        baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
        report = lint_paths(
            [REPO_ROOT / "src"], baseline=baseline or None
        )
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
